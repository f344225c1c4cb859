#include "vthread/virtual_pool.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "gentrius/counters.hpp"
#include "gentrius/enumerator.hpp"
#include "parallel/steal_deque.hpp"
#include "parallel/task_queue.hpp"
#include "support/check.hpp"
#include "support/invariant.hpp"
#include "support/stopwatch.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace gentrius::vthread {

using core::CounterSink;
using core::Enumerator;
using core::Options;
using core::Problem;
using core::Result;
using core::StopReason;
using core::Task;

namespace {

/// Simulated bounded queue. The simulation runs on one OS thread, so there
/// is no lock; instead every member is guarded by a SequentialRole
/// capability. Under Clang -Wthread-safety this proves at compile time that
/// the queue is only ever touched from inside the scheduler's RoleGuard
/// scope — the mechanical form of the determinism guarantee the header
/// documents. The push cost is charged to whichever worker's clock is
/// installed as the producer. Like the real TaskQueue, storage is a fixed
/// ring of Task slots: pushes swap the producer's staged task into a slot,
/// pops swap the slot with the scheduler's pooled steal target, so the
/// simulated hand-off is allocation-free too.
///
/// The queue's one mutex is modeled as a serial resource: a successful push
/// or pop starts no earlier than `lock_free_at_` (the previous holder's
/// release) and occupies the lock for queue_cost. At high thread counts the
/// aggregate hand-off demand exceeds what one lock can serve per unit of
/// virtual time — the saturation the distributed scheduler removes. A
/// rejected push is counted in the stats but charged nothing: the real
/// try_push holds the mutex just long enough to learn the ring is full, and
/// the model leaves that hold out.
class VirtualQueue final : public core::TaskSink {
 public:
  VirtualQueue(std::size_t capacity, double queue_cost)
      : capacity_(capacity), queue_cost_(queue_cost), slots_(capacity) {}

  /// The scheduler capability; the event loop holds it for the whole run.
  support::SequentialRole& role() GENTRIUS_RETURN_CAPABILITY(role_) {
    return role_;
  }

  void set_producer_clock(double* clock) GENTRIUS_REQUIRES(role_) {
    producer_clock_ = clock;
  }

  // Called through core::TaskSink from inside Enumerator::step, which only
  // runs while the event loop (holding the role) steps the worker.
  bool try_push(Task& task) override GENTRIUS_REQUIRES(role_) {
    GENTRIUS_DCHECK_LE(size_, capacity_);
    if (size_ >= capacity_) {
      ++rejections_;
      return false;
    }
    GENTRIUS_DCHECK(producer_clock_ != nullptr);
    const double start = std::max(*producer_clock_, lock_free_at_);
    *producer_clock_ = start + queue_cost_;
    lock_free_at_ = *producer_clock_;
    Entry& slot = slots_[(head_ + size_) % capacity_];
    std::swap(slot.task.path, task.path);
    slot.task.next_taxon = task.next_taxon;
    std::swap(slot.task.branches, task.branches);
    slot.available_at = *producer_clock_;
    ++size_;
    if (size_ > max_depth_) max_depth_ = size_;
    return true;
  }

  bool empty() const GENTRIUS_REQUIRES(role_) { return size_ == 0; }

  /// Earliest virtual time a pop could complete its lock acquisition: the
  /// oldest entry must exist and the queue mutex must be free.
  double pop_available_at() const GENTRIUS_REQUIRES(role_) {
    GENTRIUS_DCHECK(size_ > 0);
    return std::max(slots_[head_].available_at, lock_free_at_);
  }

  /// Pops the oldest task for a thief whose lock acquisition begins at
  /// `start` (>= pop_available_at()); returns the thief's clock after the
  /// critical section.
  double pop_front(Task& out, double start) GENTRIUS_REQUIRES(role_) {
    GENTRIUS_DCHECK(size_ > 0);
    GENTRIUS_DCHECK_GE(start, lock_free_at_);
    std::swap(out.path, slots_[head_].task.path);
    out.next_taxon = slots_[head_].task.next_taxon;
    std::swap(out.branches, slots_[head_].task.branches);
    head_ = (head_ + 1) % capacity_;
    --size_;
    ++pops_;
    lock_free_at_ = start + queue_cost_;
    return lock_free_at_;
  }

  core::SchedulerStats stats() const GENTRIUS_REQUIRES(role_) {
    core::SchedulerStats s;
    s.tasks_stolen = pops_;
    s.steal_attempts = pops_;
    s.queue_full_rejections = rejections_;
    s.max_queue_depth = max_depth_;
    return s;
  }

 private:
  struct Entry {
    Task task;
    double available_at = 0.0;
  };
  const std::size_t capacity_;
  const double queue_cost_;
  support::SequentialRole role_;
  std::vector<Entry> slots_ GENTRIUS_GUARDED_BY(role_);  // fixed ring
  std::size_t head_ GENTRIUS_GUARDED_BY(role_) = 0;
  std::size_t size_ GENTRIUS_GUARDED_BY(role_) = 0;
  double* producer_clock_ GENTRIUS_GUARDED_BY(role_) = nullptr;
  double lock_free_at_ GENTRIUS_GUARDED_BY(role_) = 0.0;
  std::uint64_t pops_ GENTRIUS_GUARDED_BY(role_) = 0;
  std::uint64_t rejections_ GENTRIUS_GUARDED_BY(role_) = 0;
  std::size_t max_depth_ GENTRIUS_GUARDED_BY(role_) = 0;
};

/// Simulated distributed scheduler: the deterministic twin of the
/// lock-free parallel::DequeScheduler. One bounded ring per worker,
/// owner-local LIFO push/pop charged flat (deque_owner_cost — uncontended
/// atomics, never serialized), FIFO steals under the *same* seeded
/// VictimSelector streams as the real scheduler, with thief traffic
/// serialized per victim deque on its steal_free_at (the CAS'd top index
/// behaves as a serial resource among thieves). The owner/thief race for a
/// deque's final element is not modeled (see CostModel). All state is
/// guarded by the SequentialRole capability exactly like VirtualQueue's.
class VirtualDeques {
 public:
  VirtualDeques(std::size_t workers, const CostModel& costs,
                std::uint64_t steal_seed)
      : workers_(workers), costs_(&costs) {
    const std::size_t cap = parallel::steal_deque_capacity_for(workers);
    support::RoleGuard guard(role_);
    deques_.resize(workers);
    for (auto& d : deques_) d.slots.resize(cap);
    selectors_.reserve(workers);
    sinks_.reserve(workers);
    for (std::size_t tid = 0; tid < workers; ++tid) {
      selectors_.emplace_back(steal_seed, tid, workers);
      sinks_.push_back(Sink{this, tid});
    }
  }

  support::SequentialRole& role() GENTRIUS_RETURN_CAPABILITY(role_) {
    return role_;
  }

  /// Per-worker TaskSink adapter: worker tid's offers land in its own ring.
  class Sink final : public core::TaskSink {
   public:
    Sink(VirtualDeques* owner, std::size_t tid) : owner_(owner), tid_(tid) {}
    // Reached from Enumerator::step while the event loop holds the role.
    bool try_push(Task& task) override GENTRIUS_REQUIRES(owner_->role_) {
      return owner_->push(tid_, task);
    }

   private:
    VirtualDeques* owner_;
    std::size_t tid_;
  };

  core::TaskSink* sink_for(std::size_t tid) { return &sinks_[tid]; }

  void set_producer_clock(double* clock) GENTRIUS_REQUIRES(role_) {
    producer_clock_ = clock;
  }

  /// Fresh sweep-start draw for a worker entering the idle state. One draw
  /// per idle episode (not per replan): the stored start is reused until
  /// the steal commits, so the schedule is a pure function of the seed and
  /// the deterministic event order.
  std::size_t draw_sweep_start(std::size_t tid) GENTRIUS_REQUIRES(role_) {
    return selectors_[tid].begin_sweep();
  }

  struct StealPlan {
    bool valid = false;
    std::size_t victim = 0;
    std::size_t failed_probes = 0;  ///< victims scanned before the hit
    double available_at = 0.0;      ///< head entry ready and lock free
  };

  /// Plans worker `tid`'s steal: scan victims in seeded cyclic order from
  /// `sweep_start`; take the first victim whose oldest task is already
  /// acquirable at `now`, else the one that becomes acquirable earliest
  /// (scan order breaks ties). Pure planning — no state changes; the event
  /// loop replans every iteration and commits only when the steal precedes
  /// every running worker's next step.
  StealPlan plan_steal(std::size_t tid, double now, std::size_t sweep_start)
      const GENTRIUS_REQUIRES(role_) {
    StealPlan plan;
    if (workers_ < 2) return plan;
    std::size_t scanned = 0;
    for (std::size_t k = 0; k < workers_; ++k) {
      const std::size_t victim = (sweep_start + k) % workers_;
      if (victim == tid) continue;
      const Ring& d = deques_[victim];
      if (d.size == 0) {
        ++scanned;
        continue;
      }
      const double avail =
          std::max(d.slots[d.head].available_at, d.steal_free_at);
      if (avail <= now) {  // ready right now: the sweep stops here
        plan.valid = true;
        plan.victim = victim;
        plan.failed_probes = scanned;
        plan.available_at = avail;
        return plan;
      }
      if (!plan.valid || avail < plan.available_at) {
        plan.valid = true;
        plan.victim = victim;
        plan.failed_probes = scanned;
        plan.available_at = avail;
      }
      ++scanned;
    }
    return plan;
  }

  /// Commits a planned steal for a thief whose sweep begins at its current
  /// clock: failed probes are charged first, then the successful probe and
  /// the steal CAS/hand-off (serialized on that deque's steal_free_at —
  /// thieves targeting one deque pass the contended top index around one
  /// at a time). Returns the thief's clock after the hand-off.
  double commit_steal(const StealPlan& plan, double thief_clock, Task& out)
      GENTRIUS_REQUIRES(role_) {
    GENTRIUS_DCHECK(plan.valid);
    Ring& d = deques_[plan.victim];
    GENTRIUS_DCHECK(d.size > 0);
    const double probed =
        thief_clock + static_cast<double>(plan.failed_probes) *
                          (costs_->steal_attempt_cost + costs_->failed_probe_cost);
    const double start = std::max(probed, plan.available_at);
    const double end =
        start + costs_->steal_attempt_cost + costs_->deque_steal_cost;
    swap_out(out, d.slots[d.head].task);
    d.head = (d.head + 1) % d.slots.size();
    --d.size;
    d.steal_free_at = end;
    ++stolen_;
    probes_ += plan.failed_probes + 1;
    failed_probes_ += plan.failed_probes;
    return end;
  }

  bool own_deque_empty(std::size_t tid) const GENTRIUS_REQUIRES(role_) {
    return deques_[tid].size == 0;
  }

  /// Owner-side LIFO pop (the real acquire()'s first resort): takes the
  /// newest task from the worker's own ring. The lock-free owner path is
  /// never serialized against thieves, so the pop is charged flat at
  /// deque_owner_cost. Returns the owner's clock after the pop.
  double own_pop(std::size_t tid, double now, Task& out)
      GENTRIUS_REQUIRES(role_) {
    Ring& d = deques_[tid];
    GENTRIUS_DCHECK(d.size > 0);
    const double end = now + costs_->deque_owner_cost;
    --d.size;
    swap_out(out, d.slots[(d.head + d.size) % d.slots.size()].task);
    return end;
  }

  core::SchedulerStats stats() const GENTRIUS_REQUIRES(role_) {
    core::SchedulerStats s;
    s.tasks_stolen = stolen_;
    s.steal_attempts = probes_;
    s.failed_steal_probes = failed_probes_;
    for (const Ring& d : deques_) {
      s.queue_full_rejections += d.rejections;
      s.max_queue_depth = std::max<std::uint64_t>(s.max_queue_depth, d.max_depth);
    }
    return s;
  }

 private:
  struct Entry {
    Task task;
    double available_at = 0.0;
  };
  struct Ring {
    std::vector<Entry> slots;
    std::size_t head = 0;
    std::size_t size = 0;
    double steal_free_at = 0.0;  ///< thief-side serial resource (top CAS)
    std::uint64_t rejections = 0;
    std::size_t max_depth = 0;
  };

  static void swap_out(Task& dst, Task& src) {
    std::swap(dst.path, src.path);
    dst.next_taxon = src.next_taxon;
    std::swap(dst.branches, src.branches);
  }

  // Reached through core::TaskSink from inside Enumerator::step, which only
  // runs while the event loop (holding the role) steps the producer.
  bool push(std::size_t tid, Task& task) GENTRIUS_REQUIRES(role_) {
    Ring& d = deques_[tid];
    GENTRIUS_DCHECK_LE(d.size, d.slots.size());
    if (d.size >= d.slots.size()) {
      ++d.rejections;  // free bail, like VirtualQueue's rejected push
      return false;
    }
    GENTRIUS_DCHECK(producer_clock_ != nullptr);
    // Owner pushes are lock-free and uncontended: flat charge, no
    // serialization against thieves (the release-store publish needs no
    // wait on the thief-side top CAS).
    *producer_clock_ += costs_->deque_owner_cost;
    Entry& slot = d.slots[(d.head + d.size) % d.slots.size()];
    swap_out(slot.task, task);
    slot.available_at = *producer_clock_;
    ++d.size;
    if (d.size > d.max_depth) d.max_depth = d.size;
    return true;
  }

  const std::size_t workers_;
  const CostModel* costs_;
  support::SequentialRole role_;
  std::vector<Ring> deques_ GENTRIUS_GUARDED_BY(role_);
  std::vector<parallel::VictimSelector> selectors_ GENTRIUS_GUARDED_BY(role_);
  std::vector<Sink> sinks_;
  double* producer_clock_ GENTRIUS_GUARDED_BY(role_) = nullptr;
  std::uint64_t stolen_ GENTRIUS_GUARDED_BY(role_) = 0;
  std::uint64_t probes_ GENTRIUS_GUARDED_BY(role_) = 0;
  std::uint64_t failed_probes_ GENTRIUS_GUARDED_BY(role_) = 0;
};

struct VWorker {
  std::unique_ptr<Enumerator> enumerator;
  double clock = 0.0;
  enum class State { kRunning, kIdle, kDone } state = State::kIdle;
  std::uint64_t last_flushes = 0;
  std::uint64_t last_counted = 0;  // for per-unit state_cost charges
  std::uint64_t tasks_executed = 0;
  std::size_t sweep_start = 0;  // victim-scan origin for this idle episode
};

Result run_simulation(const Problem& problem, const Options& user_options,
                      std::size_t n_threads, const CostModel& costs,
                      const VirtualRules& rules, bool work_stealing) {
  GENTRIUS_CHECK(n_threads >= 1);
  core::validate_options(user_options);
  // Diagnostic only: how long the simulation itself took on the host. The
  // simulated schedule depends exclusively on virtual clocks.
  support::Stopwatch wall;  // lint:allow(wall-clock)

  Options options = user_options;
  const bool serial = n_threads == 1;
  if (serial) {
    // Sequential Gentrius uses plain global counters: exact limits, no
    // publication cost.
    options.tree_flush_batch = 1;
    options.state_flush_batch = 1;
    options.dead_end_flush_batch = 1;
  }
  const double flush_unit =
      serial ? 0.0
             : costs.flush_cost +
                   costs.flush_contention * static_cast<double>(n_threads - 1);

  const bool distributed =
      options.scheduler == core::Scheduler::kDistributedDeques &&
      work_stealing && !serial;

  CounterSink sink(options.stop);
  // The central queue's per-op cost grows with the number of workers
  // bouncing its cache line (see CostModel::queue_contention).
  VirtualQueue queue(
      parallel::queue_capacity_for(n_threads),
      costs.queue_cost +
          costs.queue_contention * static_cast<double>(n_threads - 1));
  VirtualDeques deques(n_threads, costs, options.steal_seed);
  // Single-threaded simulation: assume the scheduler role for the whole run.
  support::RoleGuard scheduler(queue.role());
  support::RoleGuard deque_scheduler(deques.role());

  std::vector<VWorker> workers(n_threads);
  Result result;

  // --- startup: spawn, private prefix replay, initial split slices --------
  for (std::size_t tid = 0; tid < n_threads; ++tid) {
    VWorker& w = workers[tid];
    w.enumerator = std::make_unique<Enumerator>(problem, options, sink);
    if (work_stealing && !serial)
      w.enumerator->set_task_sink(distributed ? deques.sink_for(tid)
                                              : static_cast<core::TaskSink*>(&queue));
    w.clock = serial ? 0.0 : costs.spawn_cost;
    const auto& prefix = w.enumerator->run_prefix(/*count=*/tid == 0);
    w.clock += static_cast<double>(prefix.length) * costs.state_cost;
    // The prefix is charged above; per-unit step charges start from here.
    w.last_counted = w.enumerator->counters().counted();
    if (tid == 0) {
      result.prefix_length = prefix.length;
      if (prefix.outcome == Enumerator::Prefix::Outcome::kSplit)
        result.initial_split_branches = prefix.branches.size();
      if (prefix.outcome == Enumerator::Prefix::Outcome::kEmpty)
        result.reason = StopReason::kEmptyStand;
    }
    if (prefix.outcome == Enumerator::Prefix::Outcome::kSplit) {
      const auto [begin, len] =
          parallel::slice_for(tid, n_threads, prefix.branches.size());
      if (len > 0) {
        std::vector<core::EdgeId> slice(
            prefix.branches.begin() + static_cast<std::ptrdiff_t>(begin),
            prefix.branches.begin() + static_cast<std::ptrdiff_t>(begin + len));
        w.enumerator->begin_branches(prefix.split_taxon, std::move(slice));
        w.state = VWorker::State::kRunning;
      }
    }
  }

  // --- event loop: always advance the earliest actionable worker ----------
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> no_late_flushes;
  Task steal_scratch;  // pooled steal target, swapped with queue slots
  for (;;) {
    // Earliest running worker.
    std::size_t run_idx = n_threads;
    double run_time = inf;
    // Earliest idle worker (a potential thief).
    std::size_t idle_idx = n_threads;
    double idle_clock = inf;
    for (std::size_t i = 0; i < n_threads; ++i) {
      const VWorker& w = workers[i];
      if (w.state == VWorker::State::kRunning && w.clock < run_time) {
        run_time = w.clock;
        run_idx = i;
      }
      if (w.state == VWorker::State::kIdle && w.clock < idle_clock) {
        idle_clock = w.clock;
        idle_idx = i;
      }
    }
    // Planning the earliest idle worker's steal is sufficient: idle deques
    // are empty (a worker parks only after draining its own ring), so every
    // thief sees the same candidate set and the earliest thief's
    // acquisition time is a lower bound on the others'.
    const bool stopped = sink.stop_requested();
    double steal_time = inf;
    VirtualDeques::StealPlan plan;
    if (work_stealing && !stopped && idle_idx < n_threads) {
      if (distributed) {
        plan = deques.plan_steal(idle_idx, idle_clock,
                                 workers[idle_idx].sweep_start);
        if (plan.valid) steal_time = std::max(idle_clock, plan.available_at);
      } else if (!queue.empty()) {
        steal_time = std::max(idle_clock, queue.pop_available_at());
      }
    }

    if (run_idx == n_threads && steal_time == inf) break;  // quiescent

    if (steal_time < run_time) {
      // An idle worker takes the oldest available task and replays its path.
      VWorker& w = workers[idle_idx];
      GENTRIUS_DCHECK_GE(steal_time, w.clock);  // virtual time never rewinds
      w.clock = distributed
                    ? deques.commit_steal(plan, w.clock, steal_scratch)
                    : queue.pop_front(steal_scratch, steal_time);
      const std::size_t replayed = w.enumerator->adopt_task(steal_scratch);
      w.clock += static_cast<double>(replayed) * costs.replay_cost;
      ++w.tasks_executed;
      w.state = VWorker::State::kRunning;
      continue;
    }

    VWorker& w = workers[run_idx];
    if (rules.max_virtual_time && w.clock >= *rules.max_virtual_time)
      sink.request_stop(StopReason::kTimeLimit);

    queue.set_producer_clock(&w.clock);
    deques.set_producer_clock(&w.clock);
    const auto step = w.enumerator->step();
    // One state_cost per unit of work the step counted, and at least one
    // per call. A step that counts a whole frame of the last two levels
    // covers several units; if a stopping rule cut it short, it also pays
    // for the call that would have found the stop. Each unit is a separate
    // addition, and a flush is charged with the first unit of the per-unit
    // step it falls in (late_flushes: a two-taxon frame's later lead
    // states, pairs and dead ends; the rest with the step's first unit), so
    // the clock sums the same terms in the same order as if every per-unit
    // step were its own step.
    const core::LocalCounters& counters = w.enumerator->counters();
    const std::uint64_t counted = counters.counted();
    std::uint64_t units = counted - w.last_counted;
    w.last_counted = counted;
    if (units > 0 && step == Enumerator::Step::kStopped) ++units;
    const std::uint64_t flushes = counters.flush_count();
    GENTRIUS_DCHECK_GE(flushes, w.last_flushes);  // flush counts are monotone
    const auto& late = units > 1 ? counters.late_flushes() : no_late_flushes;
    std::uint64_t first_flushes = flushes - w.last_flushes;
    for (const auto& [offset, n] : late) first_flushes -= n;
    w.clock += costs.state_cost +
               static_cast<double>(first_flushes) * flush_unit;
    w.last_flushes = flushes;
    std::size_t next_late = 0;
    for (std::uint64_t u = 1; u < units; ++u) {
      std::uint64_t n = 0;
      for (; next_late < late.size() && late[next_late].first == u; ++next_late)
        n += late[next_late].second;
      w.clock += costs.state_cost + static_cast<double>(n) * flush_unit;
    }

    switch (step) {
      case Enumerator::Step::kWorked:
        break;
      case Enumerator::Step::kExhausted: {
        const std::size_t removed = w.enumerator->rewind_to_split();
        w.clock += static_cast<double>(removed) * costs.rewind_cost;
        if (!work_stealing || serial) {
          w.state = VWorker::State::kDone;
          break;
        }
        if (distributed && !sink.stop_requested() &&
            !deques.own_deque_empty(run_idx)) {
          // The real acquire()'s first resort: the worker's own ring,
          // newest task first (deepest subtree, warm replay path).
          w.clock = deques.own_pop(run_idx, w.clock, steal_scratch);
          const std::size_t replayed =
              w.enumerator->adopt_task(steal_scratch);
          w.clock += static_cast<double>(replayed) * costs.replay_cost;
          ++w.tasks_executed;
          break;  // still running
        }
        w.state = VWorker::State::kIdle;
        if (distributed) w.sweep_start = deques.draw_sweep_start(run_idx);
        break;
      }
      case Enumerator::Step::kStopped:
        w.state = VWorker::State::kDone;
        break;
    }
  }

  // --- teardown ------------------------------------------------------------
  double makespan = 0.0;
  for (VWorker& w : workers) {
    w.enumerator->counters().flush_all();
    makespan = std::max(makespan, w.clock);
    result.tasks_executed += w.tasks_executed;
    result.tasks_offered += w.enumerator->tasks_offered();
    result.selection.merge(w.enumerator->terrace().selection_stats());
    auto& trees = w.enumerator->collected_trees();
    result.trees.insert(result.trees.end(),
                        std::make_move_iterator(trees.begin()),
                        std::make_move_iterator(trees.end()));
  }
  result.stand_trees = sink.stand_trees();
  result.intermediate_states = sink.states();
  result.dead_ends = sink.dead_ends();
  if (result.reason != StopReason::kEmptyStand) result.reason = sink.reason();
  result.virtual_makespan = makespan;
  result.sched = distributed ? deques.stats() : queue.stats();
  result.seconds = wall.seconds();
  return result;
}

}  // namespace

Result run_virtual(const Problem& problem, const Options& options,
                   std::size_t n_threads, const CostModel& costs,
                   const VirtualRules& rules) {
  return run_simulation(problem, options, n_threads, costs, rules,
                        /*work_stealing=*/true);
}

Result run_virtual_static_split(const Problem& problem, const Options& options,
                                std::size_t n_threads, const CostModel& costs,
                                const VirtualRules& rules) {
  return run_simulation(problem, options, n_threads, costs, rules,
                        /*work_stealing=*/false);
}

}  // namespace gentrius::vthread
