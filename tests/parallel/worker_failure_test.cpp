// Worker failures: an exception thrown inside a pool worker reaches the
// caller of run_parallel / run_static_split as that same exception, after
// the other workers have stopped and joined. It must never escape a
// std::jthread or an OpenMP region, where it would terminate the process.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "datagen/dataset.hpp"
#include "gentrius/problem.hpp"
#include "parallel/pool.hpp"
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

/// An insertion order that is not a permutation of the missing taxa: every
/// worker's Enumerator constructor throws InvalidInput.
Options bad_insertion_order(const core::Problem& problem) {
  Options opts;
  opts.insertion_order = problem.missing_taxa;
  opts.insertion_order.pop_back();
  return opts;
}

std::vector<parallel::LaunchMode> launch_modes() {
  std::vector<parallel::LaunchMode> modes{parallel::LaunchMode::kStdThread};
  if (parallel::openmp_available())
    modes.push_back(parallel::LaunchMode::kOpenMP);
  return modes;
}

TEST(WorkerFailure, PoolRethrowsBadInsertionOrder) {
  const auto problem = instance();
  for (const Scheduler sched :
       {Scheduler::kCentralQueue, Scheduler::kDistributedDeques}) {
    Options opts = bad_insertion_order(problem);
    opts.scheduler = sched;
    for (const auto mode : launch_modes()) {
      for (const std::size_t nt : {1UL, 2UL, 4UL}) {
        SCOPED_TRACE(std::string(to_string(sched)) + " nt=" +
                     std::to_string(nt));
        EXPECT_THROW(parallel::run_parallel(problem, opts, nt, mode),
                     support::InvalidInput);
      }
    }
  }
}

TEST(WorkerFailure, StaticSplitRethrowsBadInsertionOrder) {
  const auto problem = instance();
  const Options opts = bad_insertion_order(problem);
  for (const std::size_t nt : {1UL, 2UL, 4UL}) {
    SCOPED_TRACE("nt=" + std::to_string(nt));
    EXPECT_THROW(parallel::run_static_split(problem, opts, nt),
                 support::InvalidInput);
  }
}

// A failure in the middle of a run: the name table covers one taxon, so
// naming the first collected stand tree throws std::out_of_range. Workers
// fail at different times while others are still enumerating or parked
// waiting for tasks; all of them must stop and the caller gets the error.
TEST(WorkerFailure, MidRunFailureStopsThePoolAndRethrows) {
  const auto problem = instance();
  phylo::TaxonSet names;
  names.add("only");
  for (const Scheduler sched :
       {Scheduler::kCentralQueue, Scheduler::kDistributedDeques}) {
    Options opts;
    opts.scheduler = sched;
    opts.collect_trees = true;
    opts.tree_names = &names;
    for (const auto mode : launch_modes()) {
      for (const std::size_t nt : {2UL, 4UL}) {
        SCOPED_TRACE(std::string(to_string(sched)) + " nt=" +
                     std::to_string(nt));
        EXPECT_THROW(parallel::run_parallel(problem, opts, nt, mode),
                     std::out_of_range);
      }
    }
  }
}

}  // namespace
}  // namespace gentrius
