// Distributed work-stealing scheduler: per-worker locked bounded rings.
//
// The paper's §III design funnels every hand-off through one mutex/condvar
// TaskQueue whose capacity rule (N_t+1, then N_t/2) deliberately starves
// the pool at high thread counts. This header implements the alternative
// scheduler (Options::Scheduler::kDistributedDeques): each worker owns a
// bounded ring (a TaskRing behind its own mutex), pushes and pops its own
// tasks LIFO (newest = deepest subtree, warm state) and — when both its
// assignment and its ring are empty — steals FIFO (oldest = shallowest =
// biggest subtree) from victims visited in a deterministically seeded
// random cyclic order.
//
// Each lock is held for one O(1) slot swap. The owner locks its own ring,
// so it waits at most for one thief's swap. A thief only ever try_locks a
// victim's ring: when another thread holds it, the probe fails and the
// sweep moves on, so no thief blocks on another worker's ring. No ring lock
// is held while another ring lock or the signal mutex is taken.
//
// Termination detection is a busy count: a worker whose steal sweep fails
// registers as idle under the scheduler's signal mutex; the last worker to
// go idle with zero pending tasks declares the run finished and wakes
// everyone. The pending-task count is an atomic that each ring keeps under
// its own lock: it rises before any thief can see a task and falls when the
// task leaves, so it never underflows. An idle worker first spins briefly
// (support/spin_wait.hpp), holding no lock, on the pending count, the
// termination flag and the stop flag; only then does it block on the
// signal condition variable. A spinning worker is not a sleeper: producers
// only touch the signal mutex when a sleeper is actually blocked
// (Dekker-style pairing of the pending increment with the sleeper count,
// both seq_cst, closes the lost-wakeup race), and a spinner sees the
// pending count rise by itself.
//
// Decomposition semantics are identical to the central queue: an offered
// task carries half of a frame's admissible branches plus the replay path,
// the producer keeps the other half, and every branch is explored (and
// counted) exactly once by whoever ends up holding it — so tree/state/
// dead-end totals and the stand set match the serial run whenever the
// stopping rules stay quiet. The virtual-time simulator re-implements this
// exact decomposition deterministically (src/vthread/virtual_pool.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "gentrius/counters.hpp"
#include "gentrius/enumerator.hpp"
#include "gentrius/options.hpp"
#include "parallel/task_ring.hpp"
#include "support/invariant.hpp"
#include "support/rng.hpp"
#include "support/spin_wait.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace gentrius::parallel {

/// Per-worker ring capacity. Unlike the central queue's N_t-coupled rule,
/// capacity is per worker, so total task headroom scales with the pool: at
/// 48 threads the central queue holds 24 tasks for 47 potential thieves,
/// while 48 deques hold up to 384. Eight slots per worker keeps the
/// owner-side pop-back churn (rewind + replay of self-offered tasks that
/// nobody stole) negligible while leaving thieves plenty to take.
inline std::size_t steal_deque_capacity_for(std::size_t /*n_threads*/) {
  return 8;
}

/// Deterministically seeded victim-selection stream: one per worker, used
/// only by its owner. Each steal sweep starts at a pseudo-random peer and
/// scans cyclically, so thieves spread over victims instead of convoying on
/// worker 0. The identical generator drives the virtual-time simulator's
/// victim order, making the simulated schedule a pure function of
/// Options::steal_seed. A selector always belongs to a concrete pool, so
/// the zero-worker state is unrepresentable: there is no default
/// constructor, and construction checks n_workers >= 1.
class VictimSelector {
 public:
  VictimSelector(std::uint64_t seed, std::size_t tid, std::size_t n_workers)
      : rng_(seed ^ (0x9e3779b97f4a7c15ULL * (tid + 1))),
        n_workers_(n_workers) {
    GENTRIUS_CHECK(n_workers >= 1);
  }

  /// First victim candidate of a sweep (may equal the caller's own id —
  /// sweeps skip self). Cyclic scan order: begin, begin+1, ... mod n.
  std::size_t begin_sweep() { return rng_.below(n_workers_); }

 private:
  support::Rng rng_;
  std::size_t n_workers_;
};

/// One worker's bounded task ring behind its own mutex. The owner pushes
/// and pops at the back (LIFO) under the lock; a thief takes from the front
/// (FIFO) only if try_lock succeeds.
///
/// `pending` counts the tasks queued across all of a scheduler's rings. The
/// ring raises it under its lock when a task enters, before a thief can see
/// the task, and lowers it under the lock of the ring the task leaves.
class StealDeque {
 public:
  StealDeque(std::size_t capacity, std::atomic<std::size_t>& pending)
      : ring_(capacity), pending_(pending) {}

  StealDeque(const StealDeque&) = delete;
  StealDeque& operator=(const StealDeque&) = delete;

  /// Owner side: false when full (the task is untouched and the caller
  /// keeps its branches); counts the rejection.
  bool owner_push(core::Task& task) GENTRIUS_EXCLUDES(mutex_) {
    support::MutexLock lock(mutex_);
    if (!ring_.push_back(task)) return false;
    pending_.fetch_add(1, std::memory_order_seq_cst);
    return true;
  }

  /// Owner side: newest task (deepest subtree), or false when empty.
  bool owner_pop(core::Task& out) GENTRIUS_EXCLUDES(mutex_) {
    support::MutexLock lock(mutex_);
    return note_taken(ring_.pop_back(out));
  }

  /// Thief side: oldest task (shallowest, biggest subtree), or false when
  /// the ring is empty or its lock is held by another thread. The scheduler
  /// treats both as a failed probe and re-checks pending work before
  /// waiting, so no task is ever lost.
  bool steal(core::Task& out) GENTRIUS_EXCLUDES(mutex_) {
    if (!mutex_.try_lock()) return false;
    const bool got = note_taken(ring_.pop_front(out));
    mutex_.unlock();
    return got;
  }

  std::size_t size() const GENTRIUS_EXCLUDES(mutex_) {
    support::MutexLock lock(mutex_);
    return ring_.size();
  }
  std::uint64_t rejections() const GENTRIUS_EXCLUDES(mutex_) {
    support::MutexLock lock(mutex_);
    return ring_.rejections();
  }
  std::size_t max_depth() const GENTRIUS_EXCLUDES(mutex_) {
    support::MutexLock lock(mutex_);
    return ring_.max_depth();
  }

  /// The ring's lock (tests hold it to make a thief's probe fail).
  support::Mutex& mutex() GENTRIUS_RETURN_CAPABILITY(mutex_) {
    return mutex_;
  }

 private:
  bool note_taken(bool popped) GENTRIUS_REQUIRES(mutex_) {
    if (!popped) return false;
    const std::size_t before = pending_.fetch_sub(1, std::memory_order_seq_cst);
    GENTRIUS_DCHECK_GT(before, 0u);
    static_cast<void>(before);
    return true;
  }

  mutable support::Mutex mutex_{support::Rank::kStealDeque};
  TaskRing<> ring_ GENTRIUS_GUARDED_BY(mutex_);
  std::atomic<std::size_t>& pending_;
};

/// The full distributed scheduler: N_t deques, per-worker victim streams,
/// busy-count termination, and a signal mutex/condvar for idle workers that
/// stopped spinning. Workers interact through per-worker handles: the
/// handle is the enumerator's TaskSink (offers land in the worker's own
/// deque) and the pool's waiting acquire source. Task hand-off takes only
/// ring locks; the signal mutex is touched only to go idle, to block, to
/// wake a blocked worker, and to arbitrate termination.
class DequeScheduler final : public core::StopWaker {
 public:
  /// The run's idle waits spin when `workers` threads plus their caller fit
  /// the machine.
  DequeScheduler(std::size_t workers, std::uint64_t steal_seed)
      : workers_(workers), spin_(support::spin_fits(workers)), busy_(workers) {
    handles_.reserve(workers);
    for (std::size_t tid = 0; tid < workers; ++tid) {
      deques_.emplace_back(steal_deque_capacity_for(workers), pending_);
      handles_.push_back(
          Handle{this, tid, VictimSelector(steal_seed, tid, workers)});
    }
  }

  /// Per-worker TaskSink: offers go to the worker's own deque. Owned by the
  /// scheduler; each worker uses exactly its own handle.
  class Handle final : public core::TaskSink {
   public:
    Handle(DequeScheduler* sched, std::size_t tid, VictimSelector selector)
        : sched_(sched), tid_(tid), selector_(std::move(selector)) {}

    bool try_push(core::Task& task) override {
      return sched_->push_local(tid_, task);
    }

   private:
    friend class DequeScheduler;
    DequeScheduler* sched_;
    std::size_t tid_;
    VictimSelector selector_;  // touched only by the owning worker thread
  };

  core::TaskSink* sink_for(std::size_t tid) {
    GENTRIUS_DCHECK_LT(tid, workers_);
    return &handles_[tid];
  }

  /// Waiting acquire for worker `tid`: own deque LIFO first, then a steal
  /// sweep over the other deques, then spin and block until a push or
  /// termination. Returns false when the pool terminated (all workers idle,
  /// no pending tasks) or a stopping rule fired; `out` is untouched then.
  bool acquire(std::size_t tid, const core::CounterSink& sink, core::Task& out)
      GENTRIUS_EXCLUDES(mutex_) {
    GENTRIUS_DCHECK_LT(tid, workers_);
    for (;;) {
      // order: pairs with the done_ release in the terminating worker /
      // broadcast_stop; seeing true implies termination state is visible
      if (done_.load(std::memory_order_acquire) || sink.stop_requested())
        return false;
      if (deques_[tid].owner_pop(out)) return true;
      if (try_steal(tid, out)) return true;
      // Nothing anywhere: transition to idle under the signal mutex. The
      // pending_ re-check under the lock closes the race with a push that
      // landed between the failed sweep and the lock acquisition (a probe
      // that found a victim's ring locked also lands here; the thief
      // re-sweeps or waits, and the pending count keeps termination exact).
      bool i_terminated = false;
      {
        support::MutexLock lock(mutex_);
        if (pending_.load(std::memory_order_seq_cst) > 0)
          continue;  // late push: stay busy, sweep again
        GENTRIUS_DCHECK_GT(busy_, 0u);
        if (--busy_ == 0) {
          // order: release pairs with the done_ acquire loads; readers of
          // done_ == true see the final termination state
          done_.store(true, std::memory_order_release);
          i_terminated = true;
        } else if (!spin_ && !block(sink)) {
          return false;  // busy_ stays decremented: this worker is leaving
        }
      }
      if (i_terminated) {
        cv_.notify_all();
        return false;
      }
      if (spin_) {
        // Idle but not a sleeper: no push notifies this worker, so it
        // polls the pending count itself, then blocks as a sleeper.
        support::spin_until([&] {
          // order: done_ acquire pairs with its release sites, as above
          return pending_.load(std::memory_order_seq_cst) > 0 ||
                 done_.load(std::memory_order_acquire) ||
                 sink.stop_requested();
        });
        support::MutexLock lock(mutex_);
        if (!block(sink)) return false;  // busy_ stays decremented
      }
    }
  }

  /// Wakes all waiting workers (stopping rule / external stop). Subsequent
  /// pushes are rejected so producers keep their branches.
  void broadcast_stop() GENTRIUS_EXCLUDES(mutex_) {
    {
      support::MutexLock lock(mutex_);
      // order: release pairs with the done_ acquire loads in acquire()
      // and push_local()
      done_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

  void wake_all() override { broadcast_stop(); }

  core::SchedulerStats stats() const {
    core::SchedulerStats s;
    // order: monotonic diagnostic counters, read after the run completes
    s.tasks_stolen = stolen_.load(std::memory_order_relaxed);
    // order: same completion-ordered diagnostic read as above
    s.steal_attempts = probes_.load(std::memory_order_relaxed);
    // order: same completion-ordered diagnostic read as above
    s.failed_steal_probes = failed_probes_.load(std::memory_order_relaxed);
    for (const StealDeque& d : deques_) {
      s.queue_full_rejections += d.rejections();
      s.max_queue_depth =
          std::max<std::uint64_t>(s.max_queue_depth, d.max_depth());
    }
    return s;
  }

  /// Diagnostics (tests): total tasks currently queued across all deques.
  std::size_t pending() const {
    return pending_.load(std::memory_order_seq_cst);
  }

  /// Diagnostics (tests): failed steal probes so far. Takes no ring lock,
  /// so a test that holds one can wait for a thief to find it held.
  std::uint64_t failed_probes() const {
    // order: monotonic diagnostic counter; the test that polls it reads
    // nothing else through it
    return failed_probes_.load(std::memory_order_relaxed);
  }

  /// Diagnostics (tests): worker `tid`'s ring.
  StealDeque& deque(std::size_t tid) {
    GENTRIUS_DCHECK_LT(tid, workers_);
    return deques_[tid];
  }

 private:
  bool push_local(std::size_t tid, core::Task& task) {
    // order: pairs with the done_ release sites; a post-stop push must
    // observe the rejection state
    if (done_.load(std::memory_order_acquire)) return false;
    if (!deques_[tid].owner_push(task)) return false;
    // Wake a blocked worker only when one exists — the common case (all
    // workers busy or spinning) never touches the signal mutex. See the
    // Dekker note in block() for why this cannot miss a sleeper.
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
      { support::MutexLock lock(mutex_); }
      cv_.notify_one();
    }
    return true;
  }

  /// Blocks the calling idle worker as a sleeper until a task is pending,
  /// the run terminated or a stopping rule fired. True when a task is
  /// pending: the worker is busy again and sweeps. False when the run ended.
  bool block(const core::CounterSink& sink) GENTRIUS_REQUIRES(mutex_) {
    // Dekker pairing with push_local: the sleeper count is raised *before*
    // re-reading pending_ (both seq_cst), the producer raises pending_
    // *before* reading the sleeper count — at least one side must see the
    // other, so no push can slip between this predicate check and the wait.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    // order: done_ acquire pairs with its release sites; wake-up reason
    // must be visible before acting on it
    while (!done_.load(std::memory_order_acquire) && !sink.stop_requested() &&
           pending_.load(std::memory_order_seq_cst) == 0) {
      cv_.wait(mutex_);
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    // order: same pairing as the wait predicate above
    if (done_.load(std::memory_order_acquire) || sink.stop_requested())
      return false;
    ++busy_;
    return true;
  }

  bool try_steal(std::size_t tid, core::Task& out) {
    if (workers_ < 2) return false;
    const std::size_t start = handles_[tid].selector_.begin_sweep();
    for (std::size_t k = 0; k < workers_; ++k) {
      const std::size_t victim = (start + k) % workers_;
      if (victim == tid) continue;
      // order: monotonic diagnostic counter, read after the run completes
      probes_.fetch_add(1, std::memory_order_relaxed);
      if (deques_[victim].steal(out)) {
        // order: monotonic diagnostic counter, read after the run completes
        stolen_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // order: monotonic diagnostic counter, read after the run completes
      failed_probes_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }

  const std::size_t workers_;
  const bool spin_;
  // Polled by spinning workers, so each sits on a cache line of its own.
  support::PolledAtomic<std::size_t> pending_{0};  // queued, all deques
  support::PolledAtomic<bool> done_{false};
  std::deque<StealDeque> deques_;  // StealDeque is pinned: not relocatable
  std::vector<Handle> handles_;

  // Blocking + termination arbitration only.
  mutable support::Mutex mutex_{support::Rank::kSchedulerSignal};
  support::CondVar cv_;
  std::atomic<std::size_t> sleepers_{0};  // workers blocked on cv_
  std::size_t busy_ GENTRIUS_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> failed_probes_{0};
};

}  // namespace gentrius::parallel
