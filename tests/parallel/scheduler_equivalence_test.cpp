// Cross-scheduler equivalence: the central queue and the distributed
// deques implement the same decomposition, so with stopping rules quiet
// every driver — serial, real pool under either scheduler, virtual-time
// simulator under either scheduler — must report identical tree / state /
// dead-end counts and the identical canonical stand set at every thread
// count. This is the §IV "exact same results" check extended to the
// scheduler axis.
// The inputs are simulated instances and the hand-off flood family, which
// has an offer-eligible frame at every state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "datagen/dataset.hpp"
#include "gentrius/serial.hpp"
#include "parallel/pool.hpp"
#include "vthread/virtual_pool.hpp"

namespace gentrius {
namespace {

using core::Options;
using core::Result;
using core::Scheduler;
using core::StopReason;

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Runs serial, then the real pool and the simulator under both schedulers
/// at N_t in {2, 4, 8}, and expects every parallel run to match serial.
/// `opts` must collect trees and leave the stopping rules quiet.
void expect_drivers_match_serial(const core::Problem& problem,
                                 const Options& opts) {
  const Result serial = core::run_serial(problem, opts);
  ASSERT_EQ(serial.reason, StopReason::kCompleted);
  const auto expected_trees = sorted(serial.trees);

  for (const Scheduler sched :
       {Scheduler::kCentralQueue, Scheduler::kDistributedDeques}) {
    Options o = opts;
    o.scheduler = sched;
    for (const std::size_t threads : {2u, 4u, 8u}) {
      const Result par = parallel::run_parallel(problem, o, threads);
      EXPECT_EQ(par.stand_trees, serial.stand_trees)
          << to_string(sched) << " threads=" << threads;
      EXPECT_EQ(par.intermediate_states, serial.intermediate_states)
          << to_string(sched) << " threads=" << threads;
      EXPECT_EQ(par.dead_ends, serial.dead_ends)
          << to_string(sched) << " threads=" << threads;
      EXPECT_EQ(par.reason, StopReason::kCompleted);
      EXPECT_EQ(sorted(par.trees), expected_trees)
          << to_string(sched) << " threads=" << threads;
      // A completed run drained every accepted offer: the schedulers
      // terminate only with empty queues/deques, and each acquired task
      // is adopted exactly once.
      EXPECT_EQ(par.tasks_executed, par.tasks_offered)
          << to_string(sched) << " threads=" << threads;
      if (sched == Scheduler::kCentralQueue) {
        // Every central hand-off crosses the shared queue.
        EXPECT_EQ(par.sched.tasks_stolen, par.tasks_executed);
        EXPECT_EQ(par.sched.failed_steal_probes, 0u);
      } else {
        // Steal accounting: transfers never exceed probes, and only
        // offered tasks can be stolen.
        EXPECT_LE(par.sched.tasks_stolen, par.sched.steal_attempts);
        EXPECT_LE(par.sched.tasks_stolen, par.tasks_offered);
      }
      if (par.tasks_offered > 0) {
        EXPECT_GE(par.sched.max_queue_depth, 1u);
      }

      const Result vir = vthread::run_virtual(problem, o, threads);
      EXPECT_EQ(vir.stand_trees, serial.stand_trees)
          << to_string(sched) << " vthreads=" << threads;
      EXPECT_EQ(vir.intermediate_states, serial.intermediate_states)
          << to_string(sched) << " vthreads=" << threads;
      EXPECT_EQ(vir.dead_ends, serial.dead_ends)
          << to_string(sched) << " vthreads=" << threads;
      EXPECT_EQ(sorted(vir.trees), expected_trees)
          << to_string(sched) << " vthreads=" << threads;
      EXPECT_EQ(vir.tasks_executed, vir.tasks_offered)
          << to_string(sched) << " vthreads=" << threads;
    }
  }
}

struct SchedCase {
  std::size_t n_taxa;
  std::size_t n_loci;
  double missing;
  std::uint64_t seed;
};

class SchedulerEquivalence : public ::testing::TestWithParam<SchedCase> {};

TEST_P(SchedulerEquivalence, BothSchedulersMatchSerialRealAndVirtual) {
  const auto p = GetParam();
  datagen::SimulatedParams sp;
  sp.n_taxa = p.n_taxa;
  sp.n_loci = p.n_loci;
  sp.missing_fraction = p.missing;
  sp.seed = p.seed;
  const auto ds = datagen::make_simulated(sp);

  Options opts;
  opts.collect_trees = true;
  expect_drivers_match_serial(core::build_problem(ds.constraints, opts), opts);
}

INSTANTIATE_TEST_SUITE_P(
    Instances, SchedulerEquivalence,
    ::testing::Values(SchedCase{12, 4, 0.4, 311}, SchedCase{16, 5, 0.45, 312},
                      SchedCase{20, 5, 0.5, 313}, SchedCase{24, 6, 0.45, 314}));

// The flood family schedules very differently from the simulated
// instances: every state offers, so the queues run full all the time. Its
// seeds permute the insertion order, so each seed splits at other taxa.
class FloodSchedulerEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FloodSchedulerEquivalence, BothSchedulersMatchSerialRealAndVirtual) {
  const auto ds = datagen::make_flood_instance(/*depth=*/6, GetParam());
  Options opts;
  opts.collect_trees = true;
  opts.select_initial_tree = false;
  opts.initial_constraint = *ds.forced_initial_constraint;
  opts.dynamic_taxon_order = false;
  opts.insertion_order = ds.forced_insertion_order;
  const auto problem = core::build_problem(ds.constraints, opts);
  ASSERT_GT(core::run_serial(problem, opts).stand_trees, 100u);
  expect_drivers_match_serial(problem, opts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloodSchedulerEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u));

// The distributed scheduler's counts must not depend on the victim-
// selection seed (the schedule may differ; the enumeration may not).
TEST(StealSeed, CountsAreSeedIndependent) {
  datagen::SimulatedParams sp;
  sp.n_taxa = 18;
  sp.n_loci = 5;
  sp.missing_fraction = 0.45;
  sp.seed = 2024;
  const auto ds = datagen::make_simulated(sp);
  Options opts;
  opts.collect_trees = true;
  opts.scheduler = Scheduler::kDistributedDeques;
  const auto problem = core::build_problem(ds.constraints, opts);

  const Result base = parallel::run_parallel(problem, opts, 4);
  for (const std::uint64_t seed : {1ull, 0xdeadbeefull, 42ull}) {
    Options o = opts;
    o.steal_seed = seed;
    const Result r = parallel::run_parallel(problem, o, 4);
    EXPECT_EQ(r.stand_trees, base.stand_trees) << "seed=" << seed;
    EXPECT_EQ(r.intermediate_states, base.intermediate_states)
        << "seed=" << seed;
    EXPECT_EQ(r.dead_ends, base.dead_ends) << "seed=" << seed;
    EXPECT_EQ(sorted(r.trees), sorted(base.trees)) << "seed=" << seed;
  }
}

// Virtual distributed runs are bit-deterministic: same options → same
// makespan, same schedule statistics.
TEST(VirtualDistributed, SameSeedSameMakespan) {
  datagen::SimulatedParams sp;
  sp.n_taxa = 16;
  sp.n_loci = 5;
  sp.missing_fraction = 0.45;
  sp.seed = 1234;
  const auto ds = datagen::make_simulated(sp);
  Options opts;
  opts.scheduler = Scheduler::kDistributedDeques;
  const auto problem = core::build_problem(ds.constraints, opts);
  const auto a = vthread::run_virtual(problem, opts, 4);
  const auto b = vthread::run_virtual(problem, opts, 4);
  EXPECT_EQ(a.virtual_makespan, b.virtual_makespan);
  EXPECT_EQ(a.stand_trees, b.stand_trees);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
  EXPECT_EQ(a.sched.tasks_stolen, b.sched.tasks_stolen);
  EXPECT_EQ(a.sched.steal_attempts, b.sched.steal_attempts);
}

}  // namespace
}  // namespace gentrius
