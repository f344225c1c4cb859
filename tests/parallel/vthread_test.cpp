// Virtual-time scheduler behaviour: the qualitative effects the paper
// reports must emerge from the cost model + scheduling policy.
#include <gtest/gtest.h>

#include <string>

#include "datagen/dataset.hpp"
#include "gentrius/serial.hpp"
#include "vthread/virtual_pool.hpp"

namespace gentrius {
namespace {

using core::Options;
using vthread::CostModel;

core::Problem make_problem(std::size_t n_taxa, double missing,
                           std::uint64_t seed, const Options& opts) {
  datagen::SimulatedParams sp;
  sp.n_taxa = n_taxa;
  sp.n_loci = 6;
  sp.missing_fraction = missing;
  sp.seed = seed;
  const auto ds = datagen::make_simulated(sp);
  return core::build_problem(ds.constraints, opts);
}

// The hand-off flood bounces most offers off a full ring, the schedule's
// most contended path: the simulator must still replay it bit for bit.
TEST(VirtualPool, FloodRunsAreBitIdentical) {
  const auto ds = datagen::make_flood_instance(/*depth=*/7, /*seed=*/1);
  Options opts;
  opts.select_initial_tree = false;
  opts.initial_constraint = ds.forced_initial_constraint;
  opts.dynamic_taxon_order = false;
  opts.insertion_order = ds.forced_insertion_order;
  const auto problem = core::build_problem(ds.constraints, opts);
  for (const core::Scheduler sched :
       {core::Scheduler::kCentralQueue, core::Scheduler::kDistributedDeques}) {
    Options o = opts;
    o.scheduler = sched;
    const auto a = vthread::run_virtual(problem, o, 8);
    const auto b = vthread::run_virtual(problem, o, 8);
    EXPECT_GT(a.sched.queue_full_rejections, 0u) << to_string(sched);
    EXPECT_EQ(a.virtual_makespan, b.virtual_makespan) << to_string(sched);
    EXPECT_EQ(a.tasks_offered, b.tasks_offered) << to_string(sched);
    EXPECT_EQ(a.tasks_executed, b.tasks_executed) << to_string(sched);
    EXPECT_EQ(a.sched.queue_full_rejections, b.sched.queue_full_rejections)
        << to_string(sched);
    EXPECT_EQ(a.sched.tasks_stolen, b.sched.tasks_stolen) << to_string(sched);
    EXPECT_EQ(a.sched.steal_attempts, b.sched.steal_attempts)
        << to_string(sched);
  }
}

// A counting run counts its last two levels in whole-frame steps; a
// collecting run takes one step per unit there. With costs that add up
// exactly in floating point the two runs must reach every hand-off at the
// same virtual time, so their makespans are equal: the simulator charges a
// frame's units and flushes as the per-unit steps would.
TEST(VirtualPool, CountingFramesChargeTheCollectingRunsWork) {
  CostModel exact;
  exact.replay_cost = 9.0 / 64;
  exact.rewind_cost = 3.0 / 64;
  exact.queue_contention = 10.0 / 64;
  exact.steal_attempt_cost = 3.0 / 64;
  exact.failed_probe_cost = 1.0 / 64;
  exact.deque_owner_cost = 5.0 / 64;
  exact.deque_steal_cost = 19.0 / 64;
  exact.flush_cost = 1.0 / 64;
  exact.flush_contention = 1.0 / 512;
  Options static_order;
  static_order.dynamic_taxon_order = false;
  static_order.shuffle_seed = 7;
  const struct {
    std::size_t taxa, loci;
    std::uint64_t seed;
    Options opts;
  } cases[] = {{24, 6, 4242, {}},
               {20, 4, 24, {}},  // two-taxon frames sharing a target
               {23, 7, 7, static_order}};  // two-taxon frames with dead ends
  for (const auto& c : cases) {
    datagen::SimulatedParams sp;
    sp.n_taxa = c.taxa;
    sp.n_loci = c.loci;
    sp.missing_fraction = 0.5;
    sp.seed = c.seed;
    const auto constraints = datagen::make_simulated(sp).constraints;
    for (const core::Scheduler sched :
         {core::Scheduler::kCentralQueue, core::Scheduler::kDistributedDeques}) {
      Options counting = c.opts;
      counting.scheduler = sched;
      counting.tree_flush_batch = 4;  // flushes inside frames
      counting.state_flush_batch = 8;
      counting.dead_end_flush_batch = 2;
      Options collecting = counting;
      collecting.collect_trees = true;
      collecting.collect_limit = 0;
      const auto problem = core::build_problem(constraints, counting);
      for (const std::size_t nt : {1UL, 2UL, 4UL, 8UL}) {
        const auto a = vthread::run_virtual(problem, counting, nt, exact);
        const auto b = vthread::run_virtual(problem, collecting, nt, exact);
        const std::string what = "seed " + std::to_string(c.seed) + " " +
                                 to_string(sched) + " nt=" +
                                 std::to_string(nt);
        EXPECT_EQ(a.intermediate_states, b.intermediate_states) << what;
        EXPECT_EQ(a.virtual_makespan, b.virtual_makespan) << what;
        EXPECT_EQ(a.tasks_offered, b.tasks_offered) << what;
      }
    }
  }
}

TEST(VirtualPool, SmallDatasetsSlowDownUnderThreads) {
  // Paper §IV-A: datasets with tiny serial runtimes are *slower* in
  // parallel because of thread creation and task-distribution overhead.
  Options opts;
  const auto problem = make_problem(12, 0.35, 3001, opts);
  const auto serial = vthread::run_virtual(problem, opts, 1);
  ASSERT_LT(serial.virtual_makespan, 2000.0) << "instance not small enough";
  const auto par = vthread::run_virtual(problem, opts, 8);
  EXPECT_GT(par.virtual_makespan, serial.virtual_makespan);
}

TEST(VirtualPool, LargeDatasetsSpeedUpNearLinearly) {
  Options opts;
  opts.stop.max_stand_trees = 500'000;
  opts.stop.max_states = 5'000'000;
  // A hard instance (found by the corpus generators).
  datagen::SimulatedParams sp;
  sp.n_taxa = 40;
  sp.n_loci = 8;
  sp.missing_fraction = 0.5;
  sp.seed = 20230501;
  const auto ds = datagen::make_simulated(sp);
  const auto problem = core::build_problem(ds.constraints, opts);
  const auto serial = vthread::run_virtual(problem, opts, 1);
  ASSERT_EQ(serial.reason, core::StopReason::kCompleted);
  ASSERT_GT(serial.virtual_makespan, 20'000.0);
  const auto p4 = vthread::run_virtual(problem, opts, 4);
  const auto p8 = vthread::run_virtual(problem, opts, 8);
  EXPECT_GT(serial.virtual_makespan / p4.virtual_makespan, 3.0);
  EXPECT_GT(serial.virtual_makespan / p8.virtual_makespan, 5.0);
}

TEST(VirtualPool, WorkStealingBeatsStaticSplitOnAverage) {
  Options opts;
  opts.stop.max_stand_trees = 300'000;
  opts.stop.max_states = 3'000'000;
  double pool_total = 0, static_total = 0;
  int used = 0;
  for (std::uint64_t seed = 500; seed < 540 && used < 6; ++seed) {
    datagen::SimulatedParams sp;
    sp.n_taxa = 36;
    sp.n_loci = 7;
    sp.missing_fraction = 0.5;
    sp.seed = seed;
    const auto ds = datagen::make_simulated(sp);
    const auto problem = core::build_problem(ds.constraints, opts);
    const auto probe = vthread::run_virtual(problem, opts, 8);
    if (probe.reason != core::StopReason::kCompleted ||
        probe.virtual_makespan < 1000)
      continue;
    pool_total += probe.virtual_makespan;
    static_total +=
        vthread::run_virtual_static_split(problem, opts, 8).virtual_makespan;
    ++used;
  }
  ASSERT_GT(used, 2);
  EXPECT_LT(pool_total, static_total);
}

TEST(VirtualPool, SpawnCostOnlyChargedWhenParallel) {
  Options opts;
  const auto problem = make_problem(12, 0.35, 3001, opts);
  CostModel expensive;
  expensive.spawn_cost = 1e6;
  const auto serial = vthread::run_virtual(problem, opts, 1, expensive);
  EXPECT_LT(serial.virtual_makespan, 1e6);
  const auto par = vthread::run_virtual(problem, opts, 2, expensive);
  EXPECT_GE(par.virtual_makespan, 1e6);
}

TEST(VirtualPool, UnbatchedCountersCostMoreAtHighThreadCounts) {
  Options batched;
  batched.stop.max_stand_trees = 200'000;
  Options unbatched = batched;
  unbatched.tree_flush_batch = 1;
  unbatched.state_flush_batch = 1;
  unbatched.dead_end_flush_batch = 1;
  const auto problem = make_problem(36, 0.5, 20230501, batched);
  const auto fast = vthread::run_virtual(problem, batched, 16);
  const auto slow = vthread::run_virtual(problem, unbatched, 16);
  EXPECT_LT(fast.virtual_makespan, slow.virtual_makespan);
  // Identical work, only publication cost differs.
  EXPECT_EQ(fast.stand_trees, slow.stand_trees);
}

TEST(VirtualPool, MakespanMonotonicallyImprovesOrSaturates) {
  Options opts;
  opts.stop.max_stand_trees = 300'000;
  const auto problem = make_problem(40, 0.5, 20230501, opts);
  double prev = vthread::run_virtual(problem, opts, 1).virtual_makespan;
  for (const std::size_t t : {2u, 4u, 8u, 16u}) {
    const double cur = vthread::run_virtual(problem, opts, t).virtual_makespan;
    EXPECT_LT(cur, prev * 1.15) << "threads=" << t;  // allow mild saturation
    prev = cur;
  }
}

}  // namespace
}  // namespace gentrius
