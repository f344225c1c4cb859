// Behavioural contracts: stopping rules, heuristic effects, input
// validation, counter batching, tree collection.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "datagen/dataset.hpp"
#include "drivers.hpp"
#include "gentrius/serial.hpp"
#include "parallel/pool.hpp"
#include "phylo/newick.hpp"
#include "vthread/virtual_pool.hpp"

namespace gentrius {
namespace {

using core::Options;
using core::StopReason;

datagen::Dataset hard_dataset(std::uint64_t seed = 31415) {
  datagen::SimulatedParams sp;
  sp.n_taxa = 32;
  sp.n_loci = 6;
  sp.missing_fraction = 0.5;
  sp.seed = seed;
  return datagen::make_simulated(sp);
}

// Exact limits hold for every one-worker run: its only worker also flushes
// at the unit that reaches a limit.
TEST(StoppingRules, TreeLimitIsExactInSerial) {
  const auto ds = hard_dataset();
  Options opts;
  opts.stop.max_stand_trees = 500;
  const auto problem = core::build_problem(ds.constraints, opts);
  for (const auto& driver : driver_test::kDrivers) {
    const auto r = driver.run(problem, opts, 1);
    EXPECT_EQ(r.reason, StopReason::kTreeLimit) << driver.name;
    EXPECT_EQ(r.stand_trees, 500u) << driver.name;
  }
}

TEST(StoppingRules, StateLimitIsExactInSerial) {
  const auto ds = hard_dataset();
  Options opts;
  opts.stop.max_states = 700;
  const auto problem = core::build_problem(ds.constraints, opts);
  for (const auto& driver : driver_test::kDrivers) {
    const auto r = driver.run(problem, opts, 1);
    EXPECT_EQ(r.reason, StopReason::kStateLimit) << driver.name;
    EXPECT_EQ(r.intermediate_states, 700u) << driver.name;
  }
}

TEST(StoppingRules, TimeLimitFires) {
  const auto ds = hard_dataset(999);  // needs enough work to hit the clock
  Options opts;
  opts.stop.max_seconds = 0.0;
  const auto r = core::run_serial(ds.constraints, opts);
  EXPECT_EQ(r.reason, StopReason::kTimeLimit);
}

// Only a flush that a counted unit triggers reads the clock, and a
// one-worker run flushes every 1,024 stand trees, 8,192 states and 1,024
// dead ends. An expired clock (max_seconds = 0) therefore stops it at its
// first flush: on this instance, the 1,024th stand tree.
TEST(StoppingRules, ExpiredClockStopsAOneWorkerRunAtItsFirstFlush) {
  const auto ds = hard_dataset(999);
  Options opts;
  opts.stop.max_seconds = 0.0;
  const auto problem = core::build_problem(ds.constraints, opts);
  const auto want = core::run_serial(problem, opts);
  EXPECT_EQ(want.reason, StopReason::kTimeLimit);
  EXPECT_EQ(want.stand_trees, 1024u);
  for (const auto& driver : driver_test::kDrivers) {
    const auto r = driver.run(problem, opts, 1);
    EXPECT_EQ(r.reason, StopReason::kTimeLimit) << driver.name;
    EXPECT_EQ(r.stand_trees, want.stand_trees) << driver.name;
    EXPECT_EQ(r.intermediate_states, want.intermediate_states) << driver.name;
    EXPECT_EQ(r.dead_ends, want.dead_ends) << driver.name;
  }
}

// A run that has done all its work is complete, even past its time: the
// final publication reads no clock. These stands (3, 525, 3, 5 and 9 trees)
// need less than a batch of every kind, so no counted unit flushes.
TEST(StoppingRules, FinishedRunsReportCompletedUnderAnExpiredClock) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    datagen::SimulatedParams sp;
    sp.n_taxa = 12;
    sp.n_loci = 4;
    sp.missing_fraction = 0.4;
    sp.seed = seed;
    const auto ds = datagen::make_simulated(sp);
    Options opts;
    const auto problem = core::build_problem(ds.constraints, opts);
    const auto want = core::run_serial(problem, opts);
    ASSERT_EQ(want.reason, StopReason::kCompleted) << ds.name;
    Options expired = opts;
    expired.stop.max_seconds = 0.0;
    for (const auto& driver : driver_test::kDrivers) {
      for (const std::size_t nt : {1UL, 2UL}) {
        if (nt > 1 && !driver.takes_threads) continue;
        const auto r = driver.run(problem, expired, nt);
        const std::string what =
            ds.name + " " + driver.name + " nt=" + std::to_string(nt);
        EXPECT_EQ(r.reason, StopReason::kCompleted) << what;
        EXPECT_EQ(r.stand_trees, want.stand_trees) << what;
        EXPECT_EQ(r.intermediate_states, want.intermediate_states) << what;
        EXPECT_EQ(r.dead_ends, want.dead_ends) << what;
      }
    }
  }
}

// At N_t = 1 every driver makes the serial driver's run, with no scheduler:
// the same counts, the same stop totals, and no task offered.
TEST(StoppingRules, OneWorkerDriversMakeTheSameRun) {
  const auto ds = hard_dataset();
  const Options defaults;
  const std::uint64_t all_trees = defaults.stop.max_stand_trees;
  const std::uint64_t all_states = defaults.stop.max_states;
  // The stand holds 4,725 trees and 5,610 states; tree limits fall on both
  // sides of a batch boundary.
  const std::pair<std::uint64_t, std::uint64_t> limits[] = {
      {all_trees, all_states}, {1, all_states},    {1023, all_states},
      {1025, all_states},      {4724, all_states}, {all_trees, 1},
      {all_trees, 2049},       {all_trees, 5609}};
  for (const auto& [trees, states] : limits) {
    Options opts;
    opts.stop.max_stand_trees = trees;
    opts.stop.max_states = states;
    const auto problem = core::build_problem(ds.constraints, opts);
    const auto want = core::run_serial(problem, opts);
    for (const auto& driver : driver_test::kDrivers) {
      const auto r = driver.run(problem, opts, 1);
      const std::string what = std::string(driver.name) + " max_stand_trees=" +
                               std::to_string(trees) +
                               " max_states=" + std::to_string(states);
      EXPECT_EQ(r.reason, want.reason) << what;
      EXPECT_EQ(r.stand_trees, want.stand_trees) << what;
      EXPECT_EQ(r.intermediate_states, want.intermediate_states) << what;
      EXPECT_EQ(r.dead_ends, want.dead_ends) << what;
      EXPECT_EQ(r.tasks_offered, 0u) << what;
      EXPECT_EQ(r.tasks_executed, 0u) << what;
    }
  }
}

TEST(StoppingRules, ParallelOvershootIsBounded) {
  // Paper §III-B: batched flushes let parallel runs exceed the limits by at
  // most ~(threads * batch) counts.
  const auto ds = hard_dataset();
  Options opts;
  opts.stop.max_stand_trees = 1000;
  const std::size_t threads = 4;
  const auto problem = core::build_problem(ds.constraints, opts);
  const auto r = parallel::run_parallel(problem, opts, threads);
  EXPECT_EQ(r.reason, StopReason::kTreeLimit);
  EXPECT_GE(r.stand_trees, 1000u);
  EXPECT_LE(r.stand_trees,
            1000u + threads * (opts.tree_flush_batch + 1));
}

TEST(StoppingRules, VirtualTimeLimit) {
  const auto ds = hard_dataset();
  Options opts;
  const auto problem = core::build_problem(ds.constraints, opts);
  const auto full = vthread::run_virtual(problem, opts, 2);
  ASSERT_EQ(full.reason, StopReason::kCompleted);
  vthread::VirtualRules rules;
  rules.max_virtual_time = full.virtual_makespan / 4;
  const auto cut = vthread::run_virtual(problem, opts, 2, {}, rules);
  EXPECT_EQ(cut.reason, StopReason::kTimeLimit);
  EXPECT_LT(cut.intermediate_states, full.intermediate_states);
}

TEST(Heuristics, DisablingThemNeverHelps) {
  // Paper §II-B: on emp-data-42370, disabling initial-tree selection cost
  // 3.5x more states; disabling dynamic insertion cost 12x and introduced
  // 1.5M dead ends. Direction (not magnitude) must hold on hard instances.
  std::uint64_t with_h = 0, without_init = 0, without_dyn = 0;
  std::uint64_t dead_with = 0, dead_without_dyn = 0;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    const auto ds = hard_dataset(seed);
    Options opts;
    opts.stop.max_states = 2'000'000;
    const auto a = core::run_serial(ds.constraints, opts);
    Options no_init = opts;
    no_init.select_initial_tree = false;
    const auto b = core::run_serial(ds.constraints, no_init);
    Options no_dyn = opts;
    no_dyn.dynamic_taxon_order = false;
    no_dyn.shuffle_seed = seed;
    const auto c = core::run_serial(ds.constraints, no_dyn);
    with_h += a.intermediate_states;
    without_init += b.intermediate_states;
    without_dyn += c.intermediate_states;
    dead_with += a.dead_ends;
    dead_without_dyn += c.dead_ends;
  }
  EXPECT_LE(with_h, without_init);
  EXPECT_LE(with_h, without_dyn);
  EXPECT_LE(dead_with, dead_without_dyn);
}

TEST(Options, BadInsertionOrderRejected) {
  const auto ds = hard_dataset();
  Options opts;
  opts.dynamic_taxon_order = false;
  opts.insertion_order = {0, 1, 2};  // not a permutation of the missing taxa
  EXPECT_THROW(core::run_serial(ds.constraints, opts), support::InvalidInput);
}

TEST(Options, BadInitialConstraintRejected) {
  const auto ds = hard_dataset();
  Options opts;
  opts.initial_constraint = 999;
  EXPECT_THROW(core::build_problem(ds.constraints, opts),
               support::InvalidInput);
}

TEST(Problem, RejectsDegenerateInputs) {
  Options opts;
  EXPECT_THROW(core::build_problem({}, opts), support::InvalidInput);
  phylo::TaxonSet taxa;
  std::vector<phylo::Tree> tiny;
  tiny.push_back(phylo::parse_newick("(a,b);", taxa));
  EXPECT_THROW(core::build_problem(tiny, opts), support::InvalidInput);
}

TEST(Collection, CollectLimitRespected) {
  const auto ds = hard_dataset();
  Options opts;
  opts.collect_trees = true;
  opts.collect_limit = 50;
  const auto r = core::run_serial(ds.constraints, opts);
  EXPECT_EQ(r.trees.size(), 50u);
  EXPECT_GT(r.stand_trees, 50u);
}

TEST(Collection, NewickNamesWhenTaxonSetGiven) {
  phylo::TaxonSet taxa;
  std::vector<phylo::Tree> cs;
  cs.push_back(phylo::parse_newick("((alpha,beta),gamma,(delta,eps));", taxa));
  cs.push_back(phylo::parse_newick("(w,alpha,beta);", taxa));
  Options opts;
  opts.collect_trees = true;
  opts.tree_names = &taxa;
  const auto r = core::run_serial(cs, opts);
  ASSERT_EQ(r.trees.size(), 7u);
  for (const auto& newick : r.trees) {
    EXPECT_NE(newick.find("alpha"), std::string::npos);
    EXPECT_EQ(newick.back(), ';');
    phylo::TaxonSet check = taxa;
    EXPECT_NO_THROW(
        phylo::parse_newick(newick, check, {.register_new_taxa = false}));
  }
}

TEST(Diagnostics, PrefixAndSplitReported) {
  const auto ds = hard_dataset();
  Options opts;
  const auto r = core::run_serial(ds.constraints, opts);
  // A hard instance must actually branch somewhere.
  EXPECT_GE(r.initial_split_branches, 2u);
}

}  // namespace
}  // namespace gentrius
