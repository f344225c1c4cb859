// A bounded spin before a blocking wait.
//
// The paper starts its workers through OpenMP, whose runtimes let an idle
// thread spin for a while before it sleeps, so a short parallel region does
// not pay for a kernel wake-up. The pool's waits do the same: a waiter polls
// an atomic for kSpinIterations CPU-relax hints and only then takes its lock
// and blocks on the condition variable exactly as it would without the spin.
// The spin is a hint, never a proof: whatever it sees, the waiter re-checks
// its condition under the lock before it acts, so the blocking path keeps
// every guarantee it has without the spin.
//
// A spin holds no lock, reads no clock and does not sleep.
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>

namespace gentrius::support {

/// How many relax hints a waiter polls through before it blocks. One x86
/// `pause` took 10.4 ns on a 2.1 GHz Xeon, so this is about 0.2 ms:
/// long enough to cover the caller's wait for a whole two-thread run of the
/// empirical-like corpus (50 µs–1 ms a run), and for a parked worker to
/// catch the next run's job. 5,000 iterations recovered only about 80 % of
/// the gain over blocking at once on that corpus.
inline constexpr int kSpinIterations = 20'000;

/// Whether the waits of a run with `threads` workers may spin: only when
/// the workers plus the caller waiting for them fit the machine, so a
/// spinning thread never holds a CPU that a worker needs. The answer
/// depends on the machine and the run's thread count, never on a workload;
/// every wait of a run asks it with the same count.
inline bool spin_fits(std::size_t threads) {
  static const std::size_t cpus = std::thread::hardware_concurrency();
  return threads < cpus;
}

/// Tells the core that the thread is in a spin loop.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  __asm__ __volatile__("yield");
#else
  std::this_thread::yield();
#endif
}

/// Polls `ready()` until it returns true or kSpinIterations relax hints
/// have passed. The caller must hold no lock.
template <class Ready>
void spin_until(Ready ready) {
  for (int i = 0; i < kSpinIterations && !ready(); ++i) cpu_relax();
}

/// Bytes in a cache line on x86-64 and most AArch64 cores.
inline constexpr std::size_t kCacheLine = 64;

/// A std::atomic alone on its cache line. A spinning thread keeps reading
/// the line it polls; alone there, the atomic does not drag a neighbouring
/// lock or counter into every one of those reads.
template <class T>
struct alignas(kCacheLine) PolledAtomic : std::atomic<T> {
  using std::atomic<T>::atomic;
};

}  // namespace gentrius::support
