// Behavioural contracts: stopping rules, heuristic effects, input
// validation, counter batching, tree collection.
#include <gtest/gtest.h>

#include "datagen/dataset.hpp"
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

TEST(StoppingRules, TreeLimitIsExactInSerial) {
  const auto ds = hard_dataset();
  Options opts;
  opts.stop.max_stand_trees = 500;
  const auto r = core::run_serial(ds.constraints, opts);
  EXPECT_EQ(r.reason, StopReason::kTreeLimit);
  EXPECT_EQ(r.stand_trees, 500u);
}

TEST(StoppingRules, StateLimitIsExactInSerial) {
  const auto ds = hard_dataset();
  Options opts;
  opts.stop.max_states = 700;
  const auto r = core::run_serial(ds.constraints, opts);
  EXPECT_EQ(r.reason, StopReason::kStateLimit);
  EXPECT_EQ(r.intermediate_states, 700u);
}

TEST(StoppingRules, TimeLimitFires) {
  const auto ds = hard_dataset(999);  // needs enough work to hit the clock
  Options opts;
  opts.stop.max_seconds = 0.0;
  const auto r = core::run_serial(ds.constraints, opts);
  EXPECT_EQ(r.reason, StopReason::kTimeLimit);
}

// Exact serial counting publishes every state, stand tree and dead end
// (batch 1) and reads the clock on every 256th flush. An expired clock
// (max_seconds = 0) therefore stops a serial run after exactly 256 counts,
// forced prefix included. The seeds need more than 256 counts to finish.
constexpr std::uint64_t kCadenceSeeds[] = {4244, 4245, 5241};

datagen::Dataset cadence_dataset(std::uint64_t seed) {
  datagen::SimulatedParams sp;
  sp.n_taxa = 48;
  sp.n_loci = 8;
  sp.missing_fraction = 0.5;
  sp.seed = seed;
  return datagen::make_simulated(sp);
}

std::uint64_t counts(const core::Result& r) {
  return r.intermediate_states + r.stand_trees + r.dead_ends;
}

TEST(StoppingRules, SerialReadsTheClockEvery256Counts) {
  for (const std::uint64_t seed : kCadenceSeeds) {
    const auto ds = cadence_dataset(seed);
    SCOPED_TRACE(ds.name);
    Options opts;
    opts.stop.max_seconds = 0.0;
    const auto r = core::run_serial(ds.constraints, opts);
    EXPECT_EQ(r.reason, StopReason::kTimeLimit);
    EXPECT_EQ(counts(r), 256u);
  }
}

TEST(StoppingRules, VirtualSerialReadsTheClockEvery256Counts) {
  // The simulator at N_t = 1 counts exactly as the serial driver does.
  for (const std::uint64_t seed : kCadenceSeeds) {
    const auto ds = cadence_dataset(seed);
    SCOPED_TRACE(ds.name);
    Options opts;
    opts.stop.max_seconds = 0.0;
    const auto r = vthread::run_virtual(
        core::build_problem(ds.constraints, opts), opts, 1);
    EXPECT_EQ(r.reason, StopReason::kTimeLimit);
    EXPECT_EQ(counts(r), 256u);
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
