#include "parallel/pool.hpp"

#include <atomic>
#include <exception>
#include <vector>

#include "gentrius/counters.hpp"
#include "gentrius/enumerator.hpp"
#include "gentrius/serial.hpp"
#include "parallel/steal_deque.hpp"
#include "parallel/task_queue.hpp"
#include "parallel/worker_cache.hpp"
#include "support/check.hpp"
#include "support/error.hpp"
#include "support/invariant.hpp"

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
// involved): the scheduler guards its own members internally (the central
// queue under one mutex, task_queue.hpp; each worker's ring under its own,
// steal_deque.hpp), `sink` is lock-free atomics (counters.hpp), and each
// worker writes only its own `out` slot — the pool reads them only after
// WorkerCache::run has seen every job return, which orders the writes
// before the reads. `Scheduler` is TaskQueue or DequeScheduler; a null
// scheduler (the static split) offers and steals nothing.
template <class Scheduler>
void worker_body(std::size_t tid, std::size_t n_threads,
                 const Problem& problem, const Options& options,
                 CounterSink& sink, Scheduler* scheduler, WorkerOutput& out) {
  GENTRIUS_DCHECK_LT(tid, n_threads);
  // Each thread builds its private Terrace and re-executes the deterministic
  // prefix (paper: "the first stages of execution are identical across all
  // threads"); only thread 0 counts those states.
  Enumerator e(problem, options, sink);
  if (scheduler != nullptr) e.set_task_sink(scheduler->sink_for(tid));

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

  if (scheduler != nullptr) {
    // Pooled steal target: acquire() swaps a queue/deque slot with this
    // task, so repeated steals recycle the same vector storage.
    core::Task task;
    while (!stopped) {
      if (!scheduler->acquire(tid, sink, task)) break;
      e.adopt_task(task);
      ++out.tasks_executed;
      stopped = drain(e);
      if (!stopped) e.rewind_to_split();
    }
    if (stopped) scheduler->broadcast_stop();
  }

  e.counters().flush_all();
  out.trees = std::move(e.collected_trees());
  out.tasks_offered = e.tasks_offered();
  out.selection = e.terrace().selection_stats();
}

/// The first exception any worker threw. Nothing may leave a worker — an
/// exception escaping a worker thread terminates the process — so each
/// worker's body runs under run_worker, which records the error and halts
/// the sink: busy workers see the stop at their next step, ones spinning in
/// the scheduler see the stop flag, and ones blocked there are woken by the
/// sink's StopWaker. The calling thread
/// rethrows after every worker's job has returned, and the worker threads
/// go back to the cache for the next run.
class FirstError {
 public:
  void capture(CounterSink& sink) {
    if (!claimed_.exchange(true)) error_ = std::current_exception();
    sink.halt();
  }

  /// Called after every job has returned; the run's completion signal
  /// orders the winner's write before this read.
  void rethrow_if_any() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::atomic<bool> claimed_{false};
  std::exception_ptr error_;
};

template <class Scheduler>
void run_worker(std::size_t tid, std::size_t n_threads, const Problem& problem,
                const Options& options, CounterSink& sink,
                Scheduler* scheduler, WorkerOutput& out, FirstError& error) {
  try {
    worker_body(tid, n_threads, problem, options, sink, scheduler, out);
  } catch (...) {
    error.capture(sink);
  }
}

template <class Scheduler>
Result assemble(const CounterSink& sink, std::vector<WorkerOutput>& outputs,
                const Scheduler* scheduler) {
  Result result;
  result.stand_trees = sink.stand_trees();
  result.intermediate_states = sink.states();
  result.dead_ends = sink.dead_ends();
  result.reason = sink.reason();
  result.seconds = sink.seconds();
  const WorkerOutput& first = outputs.front();
  result.prefix_length = first.prefix_length;
  result.initial_split_branches = first.split_branches;
  if (first.prefix_outcome == Enumerator::Prefix::Outcome::kEmpty)
    result.reason = StopReason::kEmptyStand;
  if (scheduler != nullptr) result.sched = scheduler->stats();
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

/// Runs the pool with `scheduler` for work stealing, or none (nullptr).
/// One worker is no pool: the drivers make the serial run for it.
template <class Scheduler>
Result run_pool(const Problem& problem, const Options& options,
                std::size_t n_threads, Scheduler* scheduler) {
  GENTRIUS_CHECK(n_threads >= 2);
  CounterSink sink(options.stop, n_threads);
  std::vector<WorkerOutput> outputs(n_threads);
  // Stop-wake hook: request_stop from any thread unblocks waiting consumers
  // immediately instead of waiting for a busy worker to notice the flag.
  // Cleared once every job has returned, before the scheduler goes out of
  // scope.
  if (scheduler != nullptr) sink.set_stop_waker(scheduler);

  // Every worker gets a parked thread of its own, and the calling thread
  // only waits until every job has returned. Running worker 0 on the
  // calling thread instead made the benchmark's pool timings vary several
  // times more from one process to the next (docs/PERFORMANCE.md §13), and
  // starting fresh threads for every run cost 36–50 µs a pool (§16). When
  // N_t workers plus this thread fit the machine, every wait of the run,
  // the caller's included, spins for about 0.2 ms before it blocks, so a
  // short run pays no futex wake-up (§20).
  FirstError error;
  WorkerCache::shared().run(n_threads, [&](std::size_t tid) {
    run_worker(tid, n_threads, problem, options, sink, scheduler,
               outputs[tid], error);
  });
  sink.set_stop_waker(nullptr);
  error.rethrow_if_any();
  return assemble(sink, outputs, scheduler);
}

}  // namespace

Result run_parallel(const Problem& problem, const Options& options,
                    std::size_t n_threads) {
  // A lone worker has no one to offer work to.
  if (n_threads == 1) return core::run_serial(problem, options);
  core::validate_options(options);
  if (options.scheduler == core::Scheduler::kDistributedDeques) {
    DequeScheduler deques(n_threads, options.steal_seed);
    return run_pool(problem, options, n_threads, &deques);
  }
  TaskQueue queue(queue_capacity_for(n_threads), n_threads);
  return run_pool(problem, options, n_threads, &queue);
}

Result run_static_split(const Problem& problem, const Options& options,
                        std::size_t n_threads) {
  if (n_threads == 1) return core::run_serial(problem, options);
  core::validate_options(options);
  return run_pool<TaskQueue>(problem, options, n_threads, nullptr);
}

}  // namespace gentrius::parallel
