// Worker failures: an exception thrown inside a pool worker reaches the
// caller of run_parallel / run_static_split as that same exception, after
// every other worker's job has stopped and returned. It must never escape a
// worker thread, where it would terminate the process. The threads of a
// failed run go back to the parked-thread cache, and the next run on them
// must count exactly; a thread that cannot be started fails the run before
// any job is handed out.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "datagen/dataset.hpp"
#include "gentrius/problem.hpp"
#include "gentrius/serial.hpp"
#include "parallel/pool.hpp"
#include "parallel/worker_cache.hpp"
#include "phylo/taxon_set.hpp"
#include "support/error.hpp"

namespace gentrius {
namespace {

using core::Options;
using core::Scheduler;

core::Problem instance() {
  datagen::SimulatedParams sp;
  sp.n_taxa = 48;
  sp.n_loci = 8;
  sp.missing_fraction = 0.5;
  sp.seed = 4242;
  return core::build_problem(datagen::make_simulated(sp).constraints,
                             Options{});
}

/// The run after a failed one, at the same N_t and scheduler: the threads
/// the failure went through serve it, and it counts what `want`, run_serial
/// under default options, counts.
void expect_next_run_exact(const core::Problem& problem,
                           const core::Result& want, Scheduler sched,
                           std::size_t nt, bool static_split = false) {
  Options opts;
  opts.scheduler = sched;
  const core::Result got = static_split
                               ? parallel::run_static_split(problem, opts, nt)
                               : parallel::run_parallel(problem, opts, nt);
  EXPECT_EQ(got.stand_trees, want.stand_trees);
  EXPECT_EQ(got.intermediate_states, want.intermediate_states);
  EXPECT_EQ(got.dead_ends, want.dead_ends);
  EXPECT_EQ(got.reason, core::StopReason::kCompleted);
}

/// An insertion order that is not a permutation of the missing taxa: every
/// worker's Enumerator constructor throws InvalidInput.
Options bad_insertion_order(const core::Problem& problem) {
  Options opts;
  opts.insertion_order = problem.missing_taxa;
  opts.insertion_order.pop_back();
  return opts;
}

TEST(WorkerFailure, PoolRethrowsBadInsertionOrder) {
  const auto problem = instance();
  const auto serial = core::run_serial(problem, Options{});
  for (const Scheduler sched :
       {Scheduler::kCentralQueue, Scheduler::kDistributedDeques}) {
    Options opts = bad_insertion_order(problem);
    opts.scheduler = sched;
    for (const std::size_t nt : {1UL, 2UL, 4UL}) {
      SCOPED_TRACE(std::string(to_string(sched)) + " nt=" +
                   std::to_string(nt));
      EXPECT_THROW(parallel::run_parallel(problem, opts, nt),
                   support::InvalidInput);
      expect_next_run_exact(problem, serial, sched, nt);
    }
  }
}

// A pool needs at least one worker; zero used to read an empty output list.
// No run at N_t = 0 can follow, so a two-worker run checks the pool instead.
TEST(WorkerFailure, ZeroWorkersAreRejected) {
  const auto problem = instance();
  const auto serial = core::run_serial(problem, Options{});
  EXPECT_THROW(parallel::run_parallel(problem, Options{}, 0), support::Error);
  expect_next_run_exact(problem, serial, Scheduler::kCentralQueue, 2);
  EXPECT_THROW(parallel::run_static_split(problem, Options{}, 0),
               support::Error);
  expect_next_run_exact(problem, serial, Scheduler::kCentralQueue, 2,
                        /*static_split=*/true);
}

TEST(WorkerFailure, StaticSplitRethrowsBadInsertionOrder) {
  const auto problem = instance();
  const auto serial = core::run_serial(problem, Options{});
  const Options opts = bad_insertion_order(problem);
  for (const std::size_t nt : {1UL, 2UL, 4UL}) {
    SCOPED_TRACE("nt=" + std::to_string(nt));
    EXPECT_THROW(parallel::run_static_split(problem, opts, nt),
                 support::InvalidInput);
    expect_next_run_exact(problem, serial, Scheduler::kCentralQueue, nt,
                          /*static_split=*/true);
  }
}

// A failure in the middle of a run: the name table covers one taxon, so
// naming the first collected stand tree throws std::out_of_range. Workers
// fail at different times while others are still enumerating or parked
// waiting for tasks; all of them must stop and the caller gets the error.
TEST(WorkerFailure, MidRunFailureStopsThePoolAndRethrows) {
  const auto problem = instance();
  const auto serial = core::run_serial(problem, Options{});
  phylo::TaxonSet names;
  names.add("only");
  for (const Scheduler sched :
       {Scheduler::kCentralQueue, Scheduler::kDistributedDeques}) {
    Options opts;
    opts.scheduler = sched;
    opts.collect_trees = true;
    opts.tree_names = &names;
    for (const std::size_t nt : {2UL, 4UL}) {
      SCOPED_TRACE(std::string(to_string(sched)) + " nt=" +
                   std::to_string(nt));
      EXPECT_THROW(parallel::run_parallel(problem, opts, nt),
                   std::out_of_range);
      expect_next_run_exact(problem, serial, sched, nt);
    }
  }
}

// A thread that cannot be started (std::jthread throws std::system_error,
// e.g. EAGAIN at a thread limit): workers that already had their jobs
// would wait in the scheduler for the missing ones, and the caller for
// them, forever. So the cache takes every thread before it hands out a
// job: the run throws with no job run, the thread it did start goes back
// to the idle list, and the next run uses it.
TEST(WorkerFailure, FailedThreadStartThrowsBeforeAnyJobRuns) {
  int starts = 0;  // threads are started on the calling thread only
  parallel::WorkerCache cache([&starts](std::function<void()> body) {
    if (++starts == 2)
      throw std::system_error(
          std::make_error_code(std::errc::resource_unavailable_try_again));
    return std::jthread(std::move(body));
  });
  std::atomic<int> calls{0};
  const auto job = [&calls](std::size_t) { calls.fetch_add(1); };
  EXPECT_THROW(cache.run(3, job), std::system_error);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(starts, 2);
  cache.run(3, job);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(starts, 4);  // the first thread served again; two more started
}

}  // namespace
}  // namespace gentrius
