// Verifies that the crafted Fig. 5 instance families have exactly the
// branch-and-bound shape they were designed for (see the construction notes
// in src/datagen/dataset.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "datagen/dataset.hpp"
#include "gentrius/serial.hpp"
#include "gentrius/terrace.hpp"
#include "oracle/brute_force.hpp"
#include "vthread/virtual_pool.hpp"

namespace gentrius {
namespace {

using core::Options;
using core::StopReason;

Options crafted_options(const datagen::Dataset& ds) {
  Options opts;
  opts.select_initial_tree = false;
  opts.dynamic_taxon_order = false;
  opts.initial_constraint = ds.forced_initial_constraint;
  opts.insertion_order = ds.forced_insertion_order;
  return opts;
}

TEST(PlateauInstance, HasTheDesignedShape) {
  const std::size_t chain = 12;
  const auto ds = datagen::make_plateau_instance(chain, 0);
  const auto opts = crafted_options(ds);
  const auto problem = core::build_problem(ds.constraints, opts);
  const auto r = core::run_serial(problem, opts);

  // 3-way initial split at the root; two branches are immediate dead ends;
  // the third is a fully forced chain ending in exactly one stand tree.
  EXPECT_EQ(r.reason, StopReason::kCompleted);
  EXPECT_EQ(r.prefix_length, 0u);
  EXPECT_EQ(r.initial_split_branches, 3u);
  EXPECT_EQ(r.dead_ends, 2u);
  EXPECT_EQ(r.stand_trees, 1u);
  // states: 2 dead-end insertions of x + (x, d, z_0..z_{chain-1}) on the
  // live branch.
  EXPECT_EQ(r.intermediate_states, 2 + 2 + chain);
}

TEST(PlateauInstance, MatchesOracleOnSmallChain) {
  const auto ds = datagen::make_plateau_instance(2, 0);
  const auto opts = crafted_options(ds);
  const auto r = core::run_serial(ds.constraints, opts);
  EXPECT_EQ(r.stand_trees, oracle::brute_force_stand_count(ds.constraints));
}

TEST(PlateauInstance, VirtualSpeedupPlateaus) {
  const auto ds = datagen::make_plateau_instance(64, 0);
  const auto opts = crafted_options(ds);
  const auto problem = core::build_problem(ds.constraints, opts);
  vthread::CostModel costs;
  costs.spawn_cost = 0.0;  // isolate the workflow-shape effect
  const auto serial = vthread::run_virtual(problem, opts, 1, costs);
  ASSERT_GT(serial.virtual_makespan, 0.0);
  for (const std::size_t t : {2u, 4u, 8u}) {
    const auto par = vthread::run_virtual(problem, opts, t, costs);
    const double speedup = serial.virtual_makespan / par.virtual_makespan;
    EXPECT_LT(speedup, 1.3) << "threads=" << t;
    EXPECT_EQ(par.stand_trees, serial.stand_trees);
  }
}

TEST(SuperlinearInstance, SerialExhaustsStateBudgetWithZeroTrees) {
  const auto ds = datagen::make_superlinear_instance(4, 0);
  auto opts = crafted_options(ds);
  opts.stop.max_states = 20'000;
  const auto problem = core::build_problem(ds.constraints, opts);

  const auto serial = core::run_serial(problem, opts);
  EXPECT_EQ(serial.reason, StopReason::kStateLimit);
  EXPECT_EQ(serial.stand_trees, 0u)
      << "serial search should die inside the barren region first";

  // Two virtual threads: the second descends the stand-rich branch
  // immediately and finds trees long before the state budget is gone.
  const auto par = vthread::run_virtual(problem, opts, 2);
  EXPECT_GT(par.stand_trees, 0u);
}

TEST(SuperlinearInstance, CompletesCorrectlyWithoutLimits) {
  const auto ds = datagen::make_superlinear_instance(2, 0);
  const auto opts = crafted_options(ds);
  const auto r = core::run_serial(ds.constraints, opts);
  EXPECT_EQ(r.reason, StopReason::kCompleted);
  EXPECT_EQ(r.stand_trees, oracle::brute_force_stand_count(ds.constraints));
  EXPECT_GT(r.stand_trees, 0u);
  EXPECT_GT(r.dead_ends, 0u);
}

// Expected stand size of make_flood_instance(depth, seed): each flood taxon
// is pinned to its own clade — a cherry (3 admissible edges) or, for the
// depth/4 seeded "wide" positions, a 3-taxon clade (5 edges) — and the
// choices are independent, so the stand is an exact product.
std::uint64_t flood_stand_size(std::size_t depth) {
  const std::size_t wide = std::max<std::size_t>(1, depth / 4);
  std::uint64_t n = 1;
  for (std::size_t i = 0; i < depth - wide; ++i) n *= 3;
  for (std::size_t i = 0; i < wide; ++i) n *= 5;
  return n;
}

TEST(FloodInstance, HasTheDesignedShape) {
  // Every missing taxon has three admissible branches, or five at the
  // depth/4 widened positions, and nothing is forced: the search splits
  // at the very first state.
  const std::size_t depth = 8;
  const auto ds = datagen::make_flood_instance(depth, /*seed=*/2);
  const auto opts = crafted_options(ds);
  const auto problem = core::build_problem(ds.constraints, opts);
  ASSERT_EQ(problem.missing_count(), depth);
  core::Terrace terrace(problem);
  std::vector<core::EdgeId> branches;
  std::size_t wide = 0;
  for (const auto taxon : problem.missing_taxa) {
    terrace.choose_static(taxon, branches);
    ASSERT_TRUE(branches.size() == 3 || branches.size() == 5)
        << "taxon " << taxon << " has " << branches.size() << " branches";
    if (branches.size() == 5) ++wide;
  }
  EXPECT_EQ(wide, depth / 4);
  EXPECT_EQ(core::run_serial(problem, opts).prefix_length, 0u);
}

TEST(FloodInstance, EnumeratesTheDesignedProductStand) {
  const auto ds = datagen::make_flood_instance(/*depth=*/6, /*seed=*/3);
  const auto opts = crafted_options(ds);
  const auto r = core::run_serial(ds.constraints, opts);
  EXPECT_EQ(r.reason, StopReason::kCompleted);
  EXPECT_EQ(r.stand_trees, flood_stand_size(6));
  // Every admissible branch leads to a stand tree: the family stresses
  // task granularity, never pruning.
  EXPECT_EQ(r.dead_ends, 0u);
}

TEST(FloodInstance, SeedsVaryTheOrderNotTheStand) {
  const auto a = datagen::make_flood_instance(/*depth=*/8, /*seed=*/1);
  const auto b = datagen::make_flood_instance(/*depth=*/8, /*seed=*/2);
  EXPECT_NE(a.forced_insertion_order, b.forced_insertion_order)
      << "seeds must produce genuinely different replicate instances";
  const auto ra = core::run_serial(a.constraints, crafted_options(a));
  const auto rb = core::run_serial(b.constraints, crafted_options(b));
  EXPECT_EQ(ra.stand_trees, flood_stand_size(8));
  EXPECT_EQ(rb.stand_trees, flood_stand_size(8));
}

TEST(FloodInstance, FloodsTheBoundedQueue) {
  // The design target: under the paper's fixed offer rule, offer-eligible
  // frames vastly outnumber the central queue's capacity, so most offers
  // bounce off the full ring.
  const auto ds = datagen::make_flood_instance(/*depth=*/10, /*seed=*/1);
  const auto opts = crafted_options(ds);
  const auto problem = core::build_problem(ds.constraints, opts);
  const auto r = vthread::run_virtual(problem, opts, 8);
  EXPECT_EQ(r.reason, StopReason::kCompleted);
  EXPECT_GT(r.sched.queue_full_rejections, 1'000u);
  EXPECT_GT(r.sched.queue_full_rejections, 2 * r.tasks_offered);
}

}  // namespace
}  // namespace gentrius
