#include "parallel/pool.hpp"

#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "gentrius/counters.hpp"
#include "gentrius/enumerator.hpp"
#include "parallel/steal_deque.hpp"
#include "parallel/task_queue.hpp"
#include "support/error.hpp"
#include "support/invariant.hpp"
#include "support/stopwatch.hpp"

namespace gentrius::parallel {

using core::CounterSink;
using core::Enumerator;
using core::Options;
using core::Problem;
using core::Result;
using core::StopReason;

namespace {

struct WorkerOutput {
  std::vector<std::string> trees;
  std::uint64_t tasks_offered = 0;
  std::uint64_t tasks_executed = 0;
  core::SelectionStats selection;
  Enumerator::Prefix::Outcome prefix_outcome =
      Enumerator::Prefix::Outcome::kEmpty;
  std::size_t prefix_length = 0;
  std::size_t split_branches = 0;
};

/// Uniform worker-side view of either scheduler. The worker loop only
/// needs four operations: where its offers go, how it blocks for more
/// work, how to release everyone after a stop, and the end-of-run stats.
class SchedulerDriver {
 public:
  virtual ~SchedulerDriver() = default;
  virtual core::TaskSink* sink_for(std::size_t tid) = 0;
  virtual bool acquire(std::size_t tid, const CounterSink& sink,
                       core::Task& out) = 0;
  virtual void broadcast_stop() = 0;
  virtual core::StopWaker* waker() = 0;
  virtual core::SchedulerStats stats() const = 0;
};

/// Paper §III scheduler: the shared bounded TaskQueue.
class CentralDriver final : public SchedulerDriver {
 public:
  explicit CentralDriver(std::size_t n_threads)
      : queue_(queue_capacity_for(n_threads), n_threads) {}

  core::TaskSink* sink_for(std::size_t) override { return &queue_; }
  bool acquire(std::size_t, const CounterSink& sink,
               core::Task& out) override {
    return queue_.pop(sink, out);
  }
  void broadcast_stop() override { queue_.broadcast_stop(); }
  core::StopWaker* waker() override { return &queue_; }
  core::SchedulerStats stats() const override { return queue_.stats(); }

 private:
  TaskQueue queue_;
};

/// Distributed scheduler: per-worker deques with randomized stealing.
class DequeDriver final : public SchedulerDriver {
 public:
  DequeDriver(std::size_t n_threads, std::uint64_t steal_seed)
      : sched_(n_threads, steal_seed) {}

  core::TaskSink* sink_for(std::size_t tid) override {
    return sched_.sink_for(tid);
  }
  bool acquire(std::size_t tid, const CounterSink& sink,
               core::Task& out) override {
    return sched_.acquire(tid, sink, out);
  }
  void broadcast_stop() override { sched_.broadcast_stop(); }
  core::StopWaker* waker() override { return &sched_; }
  core::SchedulerStats stats() const override { return sched_.stats(); }

 private:
  DequeScheduler sched_;
};

/// Slice [begin, begin+len) of the I0 branch set assigned to thread `tid`
/// ("as uniformly as possible", paper §III-A).
std::pair<std::size_t, std::size_t> slice_for(std::size_t tid,
                                              std::size_t n_threads,
                                              std::size_t total) {
  const std::size_t base = total / n_threads;
  const std::size_t extra = total % n_threads;
  const std::size_t begin = tid * base + std::min(tid, extra);
  const std::size_t len = base + (tid < extra ? 1 : 0);
  GENTRIUS_DCHECK_LE(begin + len, total);  // slices partition [0, total)
  return {begin, len};
}

/// Steps the enumerator until its current assignment is exhausted or a
/// stopping rule fires. Returns true when stopped.
bool drain(Enumerator& e) {
  for (;;) {
    switch (e.step()) {
      case Enumerator::Step::kWorked:
        continue;
      case Enumerator::Step::kExhausted:
        return false;
      case Enumerator::Step::kStopped:
        return true;
    }
  }
}

// Shared-state discipline (checked by Clang -Wthread-safety where locks are
// involved): the scheduler guards its own members internally (task_queue.hpp
// / steal_deque.hpp), `sink` is lock-free atomics (counters.hpp), and each
// worker writes only its own `out` slot — the pool joins every thread
// before reading them.
void worker_body(std::size_t tid, std::size_t n_threads,
                 const Problem& problem, const Options& options,
                 CounterSink& sink, SchedulerDriver* driver,
                 WorkerOutput& out) {
  GENTRIUS_DCHECK_LT(tid, n_threads);
  // Each thread builds its private Terrace and re-executes the deterministic
  // prefix (paper: "the first stages of execution are identical across all
  // threads"); only thread 0 counts those states.
  Enumerator e(problem, options, sink);
  if (driver != nullptr) e.set_task_sink(driver->sink_for(tid));

  const auto& prefix = e.run_prefix(/*count=*/tid == 0);
  out.prefix_outcome = prefix.outcome;
  out.prefix_length = prefix.length;
  out.split_branches = prefix.branches.size();

  bool stopped = false;
  if (prefix.outcome == Enumerator::Prefix::Outcome::kSplit) {
    const auto [begin, len] =
        slice_for(tid, n_threads, prefix.branches.size());
    if (len > 0) {
      std::vector<core::EdgeId> slice(
          prefix.branches.begin() + static_cast<std::ptrdiff_t>(begin),
          prefix.branches.begin() + static_cast<std::ptrdiff_t>(begin + len));
      e.begin_branches(prefix.split_taxon, std::move(slice));
      stopped = drain(e);
    }
  }

  if (driver != nullptr) {
    // Pooled steal target: acquire() swaps a queue/deque slot with this
    // task, so repeated steals recycle the same vector storage.
    core::Task task;
    while (!stopped) {
      if (!driver->acquire(tid, sink, task)) break;
      e.adopt_task(task);
      ++out.tasks_executed;
      stopped = drain(e);
      if (!stopped) e.rewind_to_split();
    }
    if (stopped) driver->broadcast_stop();
  }

  e.counters().flush_all();
  out.trees = std::move(e.collected_trees());
  out.tasks_offered = e.tasks_offered();
  out.selection = e.terrace().selection_stats();
}

/// The first exception any worker threw. Nothing may leave a worker — an
/// exception escaping a std::jthread terminates the process — so each
/// worker's body runs under run_worker, which records the error and halts
/// the sink: busy workers see the stop at their next step, parked ones are
/// woken by the sink's StopWaker. The calling thread rethrows after every
/// worker has joined.
class FirstError {
 public:
  void capture(CounterSink& sink) {
    if (!claimed_.exchange(true)) error_ = std::current_exception();
    sink.halt();
  }

  /// Called after the join, which orders the winner's write before this read.
  void rethrow_if_any() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::atomic<bool> claimed_{false};
  std::exception_ptr error_;
};

void run_worker(std::size_t tid, std::size_t n_threads, const Problem& problem,
                const Options& options, CounterSink& sink,
                SchedulerDriver* driver, WorkerOutput& out, FirstError& error) {
  try {
    worker_body(tid, n_threads, problem, options, sink, driver, out);
  } catch (...) {
    error.capture(sink);
  }
}

Result assemble(const CounterSink& sink, std::vector<WorkerOutput>& outputs,
                const SchedulerDriver* driver, double seconds) {
  Result result;
  result.stand_trees = sink.stand_trees();
  result.intermediate_states = sink.states();
  result.dead_ends = sink.dead_ends();
  result.reason = sink.reason();
  result.seconds = seconds;
  const WorkerOutput& first = outputs.front();
  result.prefix_length = first.prefix_length;
  result.initial_split_branches = first.split_branches;
  if (first.prefix_outcome == Enumerator::Prefix::Outcome::kEmpty)
    result.reason = StopReason::kEmptyStand;
  if (driver != nullptr) result.sched = driver->stats();
  for (auto& o : outputs) {
    result.tasks_executed += o.tasks_executed;
    result.tasks_offered += o.tasks_offered;
    result.selection.merge(o.selection);
    result.trees.insert(result.trees.end(),
                        std::make_move_iterator(o.trees.begin()),
                        std::make_move_iterator(o.trees.end()));
  }
  return result;
}

Result run_pool(const Problem& problem, const Options& options,
                std::size_t n_threads, bool work_stealing) {
  core::validate_options(options, core::OptionsSurface::kSingleInstance);
  // Wall clock for Result::seconds (reported diagnostics, never a
  // scheduling input) and for stopping rule 3, real-time by definition.
  // lint:allow(wall-clock)
  support::Stopwatch clock;
  CounterSink sink(options.stop);
  std::vector<WorkerOutput> outputs(n_threads);

  CentralDriver central(n_threads);
  DequeDriver deques(n_threads, options.steal_seed);
  SchedulerDriver* driver = nullptr;
  if (work_stealing) {
    driver = options.scheduler == core::Scheduler::kDistributedDeques
                 ? static_cast<SchedulerDriver*>(&deques)
                 : static_cast<SchedulerDriver*>(&central);
    // Stop-wake hook: request_stop from any thread unparks blocked
    // consumers immediately instead of waiting for a busy worker to notice
    // the flag. Cleared before the driver goes out of scope.
    sink.set_stop_waker(driver->waker());
  }

  FirstError error;
  const auto work = [&](std::size_t tid) {
    run_worker(tid, n_threads, problem, options, sink, driver, outputs[tid],
               error);
  };
  if (n_threads == 1) {
    // Degenerate pool: still exercises the worker path, minus stealing.
    work(0);
  } else {
    std::vector<std::jthread> threads;
    threads.reserve(n_threads);
    for (std::size_t tid = 0; tid < n_threads; ++tid)
      threads.emplace_back(work, tid);
  }  // jthreads join here
  sink.set_stop_waker(nullptr);
  error.rethrow_if_any();
  return assemble(sink, outputs, driver, clock.seconds());
}

}  // namespace

Result run_parallel(const Problem& problem, const Options& options,
                    std::size_t n_threads) {
  return run_pool(problem, options, n_threads, /*work_stealing=*/true);
}

Result run_static_split(const Problem& problem, const Options& options,
                        std::size_t n_threads) {
  return run_pool(problem, options, n_threads, /*work_stealing=*/false);
}

}  // namespace gentrius::parallel
