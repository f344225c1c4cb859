// Bounded work-stealing task queue (paper §III-A/B).
//
// Working threads push tasks; idle threads block on a condition variable
// until a task arrives or the run terminates. The capacity follows the
// paper's rule: N_t + 1 tasks for N_t < 8 threads, N_t / 2 otherwise —
// enough to keep the pool fed without flooding it with tiny subproblems.
//
// Storage is a TaskRing of `capacity` slots (task_ring.hpp). The producer
// stages its pooled task outside the lock and a push swaps it into the back
// slot; a pop swaps the front slot with the consumer's pooled task, so both
// critical sections are O(1) pointer exchanges.
//
// Termination detection: the queue tracks how many workers are busy. The
// last worker to go idle with an empty queue declares the run finished and
// wakes everyone. A stopping rule (CounterSink) also releases all waiters.
//
// All shared state is guarded by mutex_ and annotated for Clang's
// -Wthread-safety analysis (see support/thread_annotations.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "gentrius/counters.hpp"
#include "gentrius/enumerator.hpp"
#include "parallel/task_ring.hpp"
#include "support/invariant.hpp"
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
  /// All `workers` participants start in the busy state.
  TaskQueue(std::size_t capacity, std::size_t workers)
      : ring_(capacity), busy_(workers) {}

  /// Producer side (called from inside Enumerator::step). Non-blocking:
  /// a full queue rejects the task — left untouched, the producer keeps
  /// the branches — and a terminated queue (done_) rejects every task. On
  /// success the task's vectors are swapped into the back slot; whatever
  /// capacity the slot accumulated travels back to the producer's pool.
  bool try_push(core::Task& task) override GENTRIUS_EXCLUDES(mutex_) {
    {
      support::MutexLock lock(mutex_);
      if (done_ || !ring_.push_back(task)) return false;
    }
    cv_.notify_one();
    return true;
  }

  /// Consumer side: transitions the caller from busy to idle, blocks until
  /// work arrives, and swaps the oldest task into `out` (caller becomes
  /// busy again). Returns false when the pool terminated — all workers idle
  /// with an empty queue — or a stopping rule fired; `out` is untouched
  /// then.
  bool pop(const core::CounterSink& sink, core::Task& out)
      GENTRIUS_EXCLUDES(mutex_) {
    bool got = false;
    bool i_terminated = false;
    {
      support::MutexLock lock(mutex_);
      GENTRIUS_DCHECK_GT(busy_, 0u);
      if (--busy_ == 0 && ring_.empty()) {
        done_ = true;
        i_terminated = true;
      } else {
        for (;;) {
          if (done_ || sink.stop_requested()) break;
          // The consumer's old vectors end up in the slot and get reused by
          // a later push.
          if (ring_.pop_front(out)) {
            ++busy_;
            ++pops_;
            got = true;
            break;
          }
          cv_.wait(mutex_);
        }
      }
    }
    if (i_terminated) cv_.notify_all();
    return got;
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
      done_ = true;
    }
    cv_.notify_all();
  }

  /// core::StopWaker: the sink calls this from request_stop so consumers
  /// parked in pop()'s cv_.wait unblock immediately.
  void wake_all() override { broadcast_stop(); }

  /// Diagnostics (tests): current queue occupancy.
  std::size_t size() const GENTRIUS_EXCLUDES(mutex_) {
    support::MutexLock lock(mutex_);
    return ring_.size();
  }

  /// Scheduler observability. Every hand-off crosses the shared queue, so
  /// each pop counts as both an attempt and a transfer; the queue has no
  /// notion of a failed probe (consumers block instead of probing).
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
  mutable support::Mutex mutex_{support::Rank::kTaskQueue};
  support::CondVar cv_;
  TaskRing<> ring_ GENTRIUS_GUARDED_BY(mutex_);
  std::size_t busy_ GENTRIUS_GUARDED_BY(mutex_);
  bool done_ GENTRIUS_GUARDED_BY(mutex_) = false;
  std::uint64_t pops_ GENTRIUS_GUARDED_BY(mutex_) = 0;
};

}  // namespace gentrius::parallel
