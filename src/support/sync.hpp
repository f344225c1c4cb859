// Annotated synchronization primitives.
//
// libstdc++'s std::mutex carries no Clang thread-safety attributes, so code
// locking it directly is invisible to -Wthread-safety. These thin wrappers
// add the capability annotations (zero overhead: every method is a single
// forwarded call) and are the only locking primitives the project uses.
//
// Every Mutex additionally carries a compile-time *rank*: a thread may only
// acquire mutexes in strictly increasing rank order. The discipline makes
// deadlock impossible by construction (any cycle in a waits-for graph needs
// one non-increasing edge) and is enforced twice:
//   * statically, by the lock-rank rule of gentrius-analyze
//     (tools/gentrius_lint), which builds the acquisition graph over all
//     MutexLock sites and fails on any non-increasing edge or rank cycle;
//   * dynamically, in debug/sanitizer builds (GENTRIUS_ENABLE_INVARIANTS),
//     by a thread-local stack of held ranks checked on every lock(). An
//     inversion throws InternalError *before* blocking on the mutex, so
//     tests observe the diagnosis instead of the deadlock.
// In release builds the validator compiles to nothing.
//
// CondVar deliberately exposes only the un-predicated wait: callers re-check
// their condition in a loop while holding the Mutex, which keeps the guarded
// reads inside the analyzed caller instead of inside an unannotatable
// lambda passed through std::condition_variable.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "support/invariant.hpp"
#include "support/thread_annotations.hpp"

namespace gentrius::support {

class CondVar;

/// Lock ranks, outermost-first. Acquire strictly increasing: while holding
/// a mutex of rank r, only mutexes of rank > r may be acquired. Gaps leave
/// room to slot new locks into the hierarchy without renumbering. The full
/// table (owner, what it protects) lives in docs/TOOLING.md.
enum class Rank : int {
  kTaskQueue = 10,        // parallel/task_queue.hpp TaskQueue::mutex_
  kSchedulerSignal = 20,  // parallel/steal_deque.hpp DequeScheduler::mutex_
  kStealDeque = 25,       // parallel/steal_deque.hpp StealDeque::mutex_, one
                          // per worker ring; held for one slot swap, never
                          // nested with another ring or the signal mutex
  kCounterSink = 30,      // reserved: CounterSink is lock-free today
  kWorkerCache = 40,      // parallel/worker_cache.cpp idle list, mailboxes,
                          // run completion; never nested
  kTest = 100,            // innermost; test fixtures and harness-only locks
};

namespace detail {
#if GENTRIUS_ENABLE_INVARIANTS
/// Ranks of the mutexes this thread currently holds, in acquisition order.
/// Trivially destructible on purpose: the exiting thread's thread_locals
/// are destroyed before static objects, and a static object's destructor
/// may still lock a Mutex (the pool's parked-thread cache does), so the
/// stack must stay usable after thread_local destruction.
struct HeldRanks {
  static constexpr std::size_t kCapacity = 16;
  int rank[kCapacity];
  std::size_t size;
};

/// Function-local thread_local so a header-only library gets exactly one
/// instance per thread across translation units.
inline HeldRanks& held_ranks() {
  thread_local HeldRanks held{};
  return held;
}
#endif
}  // namespace detail

/// std::mutex with capability annotations and a lock rank.
class GENTRIUS_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(Rank rank) : rank_(static_cast<int>(rank)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GENTRIUS_ACQUIRE() {
    check_rank_before_lock();
    m_.lock();
    note_locked();
  }
  void unlock() GENTRIUS_RELEASE() {
    note_unlocked();
    m_.unlock();
  }
  bool try_lock() GENTRIUS_TRY_ACQUIRE(true) {
    // No rank check: try_lock never blocks, so it cannot deadlock; the
    // held-rank stack still records it so nested lock()s are validated.
    if (!m_.try_lock()) return false;
    note_locked();
    return true;
  }

  Rank rank() const { return static_cast<Rank>(rank_); }

 private:
  void check_rank_before_lock() const {
#if GENTRIUS_ENABLE_INVARIANTS
    const auto& held = detail::held_ranks();
    for (std::size_t i = 0; i < held.size; ++i) {
      GENTRIUS_DCHECK_OP(<, held.rank[i], rank_);
    }
#endif
  }
  void note_locked() const {
#if GENTRIUS_ENABLE_INVARIANTS
    auto& held = detail::held_ranks();
    GENTRIUS_DCHECK_LT(held.size, detail::HeldRanks::kCapacity);
    held.rank[held.size++] = rank_;
#endif
  }
  void note_unlocked() const {
#if GENTRIUS_ENABLE_INVARIANTS
    auto& held = detail::held_ranks();
    std::size_t i = held.size;  // the latest acquisition of this rank
    while (i > 0 && held.rank[i - 1] != rank_) --i;
    GENTRIUS_DCHECK(i > 0);
    std::copy(held.rank + i, held.rank + held.size, held.rank + i - 1);
    --held.size;
#endif
  }

  friend class CondVar;
  const int rank_;
  std::mutex m_;
};

/// Scoped lock for Mutex (std::scoped_lock is as unannotated as std::mutex).
class GENTRIUS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GENTRIUS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() GENTRIUS_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to support::Mutex.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified (or spuriously woken),
  /// and reacquires `mu` before returning. The caller must hold `mu` and
  /// must re-check its predicate in a loop. The rank validator keeps `mu`
  /// on the held stack across the wait: the thread is blocked and acquires
  /// nothing meanwhile, and on return it holds `mu` again.
  void wait(Mutex& mu) GENTRIUS_REQUIRES(mu) {
    // Ownership round-trips through a unique_lock because that is the only
    // handle std::condition_variable accepts; adopt/release keeps the
    // capability held across the call from the analysis' point of view.
    std::unique_lock<std::mutex> handle(mu.m_, std::adopt_lock);
    cv_.wait(handle);
    handle.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// A capability with no lock behind it: marks state owned by one logical
/// actor (the virtual-time scheduler thread). Guarding members with a
/// SequentialRole makes Clang prove that every access happens inside a
/// RoleGuard scope — i.e. from the scheduler loop — at zero runtime cost.
class GENTRIUS_CAPABILITY("role") SequentialRole {
 public:
  SequentialRole() = default;
  SequentialRole(const SequentialRole&) = delete;
  SequentialRole& operator=(const SequentialRole&) = delete;

  void acquire() GENTRIUS_ACQUIRE() {}
  void release() GENTRIUS_RELEASE() {}
};

/// Scoped assumption of a SequentialRole.
class GENTRIUS_SCOPED_CAPABILITY RoleGuard {
 public:
  explicit RoleGuard(SequentialRole& role) GENTRIUS_ACQUIRE(role)
      : role_(role) {
    role_.acquire();
  }
  ~RoleGuard() GENTRIUS_RELEASE() { role_.release(); }
  RoleGuard(const RoleGuard&) = delete;
  RoleGuard& operator=(const RoleGuard&) = delete;

 private:
  SequentialRole& role_;
};

}  // namespace gentrius::support
