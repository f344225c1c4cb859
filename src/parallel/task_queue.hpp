// Bounded work-stealing task queue (paper §III-A/B).
//
// Working threads push tasks; an idle thread spins briefly until a task is
// queued (support/spin_wait.hpp), then blocks on a condition variable
// until a task arrives or the run terminates. The capacity follows the
// paper's rule: N_t + 1 tasks for N_t < 8 threads, N_t / 2 otherwise —
// enough to keep the pool fed without flooding it with tiny subproblems.
//
// Storage is a TaskRing of `capacity` slots (task_ring.hpp). The producer
// stages its pooled task outside the lock and a push swaps it into the back
// slot; a pop swaps the front slot with the consumer's pooled task, so both
// critical sections are O(1) pointer exchanges.
//
// Termination detection: the queue tracks how many workers are busy. A
// worker leaves the busy count before it spins, so the last worker to go
// idle with an empty queue declares the run finished at once and wakes
// everyone. A stopping rule (CounterSink) also releases all waiters.
//
// All shared state is guarded by mutex_ and annotated for Clang's
// -Wthread-safety analysis (see support/thread_annotations.hpp). Two
// atomics mirror what a spinning worker polls without the lock, whether a
// task is queued and the termination flag; both are written under mutex_
// and re-read under it before the worker acts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "gentrius/counters.hpp"
#include "gentrius/enumerator.hpp"
#include "parallel/task_ring.hpp"
#include "support/invariant.hpp"
#include "support/spin_wait.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace gentrius::parallel {

/// Capacity rule from the paper (empirically tuned by the authors).
inline std::size_t queue_capacity_for(std::size_t n_threads) {
  return n_threads < 8 ? n_threads + 1 : n_threads / 2;
}

/// Slice [first, first+second) of the I0 branch set assigned to worker
/// `tid` ("as uniformly as possible", paper §III-A). Shared by the real
/// pool and the virtual-time simulator.
inline std::pair<std::size_t, std::size_t> slice_for(std::size_t tid,
                                                     std::size_t n_threads,
                                                     std::size_t total) {
  const std::size_t base = total / n_threads;
  const std::size_t extra = total % n_threads;
  const std::size_t begin = tid * base + std::min(tid, extra);
  const std::size_t len = base + (tid < extra ? 1 : 0);
  GENTRIUS_DCHECK_LE(begin + len, total);  // slices partition [0, total)
  return {begin, len};
}

class TaskQueue final : public core::TaskSink, public core::StopWaker {
 public:
  /// All `workers` participants start in the busy state; the run's waits
  /// spin when `workers` threads plus their caller fit the machine.
  TaskQueue(std::size_t capacity, std::size_t workers)
      : ring_(capacity), busy_(workers), spin_(support::spin_fits(workers)) {}

  /// Producer side (called from inside Enumerator::step). Non-blocking:
  /// a full queue rejects the task — left untouched, the producer keeps
  /// the branches — and a terminated queue (done_) rejects every task. On
  /// success the task's vectors are swapped into the back slot; whatever
  /// capacity the slot accumulated travels back to the producer's pool.
  bool try_push(core::Task& task) override GENTRIUS_EXCLUDES(mutex_) {
    {
      support::MutexLock lock(mutex_);
      if (done_.load() || !ring_.push_back(task)) return false;
      // order: a hint for spinning consumers, who re-check under mutex_
      if (spin_) queued_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_one();
    return true;
  }

  /// Consumer side: transitions the caller from busy to idle, waits until
  /// work arrives, and swaps the oldest task into `out` (caller becomes
  /// busy again). Returns false when the pool terminated — all workers idle
  /// with an empty queue — or a stopping rule fired; `out` is untouched
  /// then.
  bool pop(const core::CounterSink& sink, core::Task& out)
      GENTRIUS_EXCLUDES(mutex_) {
    bool i_terminated = false;
    {
      support::MutexLock lock(mutex_);
      GENTRIUS_DCHECK_GT(busy_, 0u);
      if (--busy_ == 0 && ring_.empty()) {
        done_.store(true);
        i_terminated = true;
      } else if (!spin_ || ready(sink)) {
        return take_or_block(sink, out);
      }
    }
    if (i_terminated) {
      cv_.notify_all();
      return false;
    }
    support::spin_until([&] { return ready(sink); });
    support::MutexLock lock(mutex_);
    return take_or_block(sink, out);
  }

  /// The worker-loop interface DequeScheduler also offers: every worker
  /// offers to and acquires from the one shared queue.
  core::TaskSink* sink_for(std::size_t /*tid*/) { return this; }
  bool acquire(std::size_t /*tid*/, const core::CounterSink& sink,
               core::Task& out) GENTRIUS_EXCLUDES(mutex_) {
    return pop(sink, out);
  }

  /// Wakes all waiters (after a stopping rule fired).
  void broadcast_stop() GENTRIUS_EXCLUDES(mutex_) {
    {
      support::MutexLock lock(mutex_);
      done_.store(true);
    }
    cv_.notify_all();
  }

  /// core::StopWaker: the sink calls this from request_stop so consumers
  /// spinning or blocked in pop() return at once.
  void wake_all() override { broadcast_stop(); }

  /// Diagnostics (tests): current queue occupancy.
  std::size_t size() const GENTRIUS_EXCLUDES(mutex_) {
    support::MutexLock lock(mutex_);
    return ring_.size();
  }

  /// Scheduler observability. Every hand-off crosses the shared queue, so
  /// each pop counts as both an attempt and a transfer; the queue has no
  /// notion of a failed probe (consumers wait instead of probing).
  core::SchedulerStats stats() const GENTRIUS_EXCLUDES(mutex_) {
    support::MutexLock lock(mutex_);
    core::SchedulerStats s;
    s.tasks_stolen = pops_;
    s.steal_attempts = pops_;
    s.queue_full_rejections = ring_.rejections();
    s.max_queue_depth = ring_.max_depth();
    return s;
  }

 private:
  /// Whether a waiting worker may stop waiting: a task is queued, the run
  /// terminated or a stopping rule fired. Read without the lock by a
  /// spinning worker, so it is only a hint there.
  bool ready(const core::CounterSink& sink) const {
    // order: a hint, as in try_push
    return queued_.load(std::memory_order_relaxed) || done_.load() ||
           sink.stop_requested();
  }

  /// Swaps the oldest task into `out` and makes the caller busy again, or
  /// blocks until there is one. False when the run terminated or a stopping
  /// rule fired.
  bool take_or_block(const core::CounterSink& sink, core::Task& out)
      GENTRIUS_REQUIRES(mutex_) {
    for (;;) {
      if (done_.load() || sink.stop_requested()) return false;
      // The consumer's old vectors end up in the slot and get reused by a
      // later push.
      if (ring_.pop_front(out)) {
        // order: a hint, as in try_push
        if (spin_) queued_.store(!ring_.empty(), std::memory_order_relaxed);
        ++busy_;
        ++pops_;
        return true;
      }
      cv_.wait(mutex_);
    }
  }

  mutable support::Mutex mutex_{support::Rank::kTaskQueue};
  support::CondVar cv_;
  TaskRing<> ring_ GENTRIUS_GUARDED_BY(mutex_);
  std::size_t busy_ GENTRIUS_GUARDED_BY(mutex_);
  std::uint64_t pops_ GENTRIUS_GUARDED_BY(mutex_) = 0;
  const bool spin_;
  // Written under mutex_ only. queued_ is kept only when consumers may
  // spin: it puts one more cache line into every push and pop, which
  // lengthened the critical sections of a four-worker run on a four-CPU
  // host (docs/PERFORMANCE.md §20).
  support::PolledAtomic<bool> queued_{false};  // the ring holds a task
  support::PolledAtomic<bool> done_{false};
};

}  // namespace gentrius::parallel
