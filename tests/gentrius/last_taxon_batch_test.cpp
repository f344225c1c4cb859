// Last-taxon batching (Enumerator::step): a run that does not collect trees
// counts each kept admissible branch of the last remaining taxon as one
// intermediate state and one stand tree, without inserting it. Collecting
// runs still insert every branch, so they are the reference: states, trees,
// dead ends and the stop reason must agree with no limits and with limits
// that land inside a last-taxon frame, and every driver must agree with the
// serial count when last-taxon frames can be handed to other workers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "datagen/dataset.hpp"
#include "gentrius/counters.hpp"
#include "gentrius/enumerator.hpp"
#include "gentrius/serial.hpp"
#include "parallel/pool.hpp"
#include "vthread/virtual_pool.hpp"

namespace gentrius::core {
namespace {

struct Case {
  std::string name;
  std::vector<phylo::Tree> constraints;
  Options options;
};

/// The golden-trace instances (tests/data/golden_trace.txt, which include a
/// dead-end-heavy one) plus a hand-off flood instance, where every state
/// holds an offer-eligible frame.
std::vector<Case> cases() {
  std::vector<Case> out;
  const auto add = [&](const char* name, const datagen::Dataset& ds) {
    out.push_back({name, ds.constraints, {}});
  };
  const auto sim = [&](const char* name, std::size_t taxa, std::size_t loci,
                       double miss, std::uint64_t seed) {
    datagen::SimulatedParams p;
    p.n_taxa = taxa;
    p.n_loci = loci;
    p.missing_fraction = miss;
    p.seed = seed;
    add(name, datagen::make_simulated(p));
  };
  sim("bench_default_48x8", 48, 8, 0.5, 4242);
  sim("multi_constraint_56x12", 56, 12, 0.55, 7014);
  sim("dead_end_heavy_56x12", 56, 12, 0.55, 7025);
  sim("dense_loci_56x20", 56, 20, 0.5, 9031);
  sim("most_constrained_48x8", 48, 8, 0.5, 4242);
  out.back().options.dynamic_variant =
      Options::DynamicVariant::kMostConstrained;
  sim("recompute_mode_56x12", 56, 12, 0.55, 7014);
  out.back().options.incremental_mappings = false;
  datagen::EmpiricalLikeParams emp;
  emp.n_taxa = 72;
  emp.n_loci = 16;
  emp.seed = 509;
  add("empirical_rogue_72x16", datagen::make_empirical_like(emp));
  add("flood_7", datagen::make_flood_instance(7, 3));
  return out;
}

Result serial(const Problem& problem, Options opts, bool collect) {
  opts.collect_trees = collect;
  return run_serial(problem, opts);
}

void expect_same_counts(const Result& got, const Result& want,
                        const std::string& what) {
  EXPECT_EQ(got.intermediate_states, want.intermediate_states) << what;
  EXPECT_EQ(got.stand_trees, want.stand_trees) << what;
  EXPECT_EQ(got.dead_ends, want.dead_ends) << what;
  EXPECT_EQ(got.reason, want.reason) << what;
}

/// (stand trees, states) totals right after each of the first `max_frames`
/// batched last-taxon frames of a counting run. A batched step is the only
/// step that counts both a state and a stand tree.
std::vector<std::pair<std::uint64_t, std::uint64_t>> frame_ends(
    const Problem& problem, Options opts, std::size_t max_frames) {
  opts.collect_trees = false;
  opts.tree_flush_batch = opts.state_flush_batch = 1;
  CounterSink sink(opts.stop);
  Enumerator e(problem, opts, sink);
  const auto& prefix = e.run_prefix(/*count=*/true);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ends;
  if (prefix.outcome != Enumerator::Prefix::Outcome::kSplit) return ends;
  e.begin_branches(prefix.split_taxon, prefix.branches);
  std::uint64_t trees = sink.stand_trees();
  std::uint64_t states = sink.states();
  while (ends.size() < max_frames && e.step() == Enumerator::Step::kWorked) {
    if (sink.stand_trees() > trees && sink.states() > states)
      ends.emplace_back(sink.stand_trees(), sink.states());
    trees = sink.stand_trees();
    states = sink.states();
  }
  return ends;
}

TEST(LastTaxonBatch, CountingMatchesCollectingWithoutLimits) {
  for (const Case& c : cases()) {
    const auto problem = build_problem(c.constraints, c.options);
    const Result want = serial(problem, c.options, /*collect=*/true);
    ASSERT_EQ(want.reason, StopReason::kCompleted) << c.name;
    expect_same_counts(serial(problem, c.options, /*collect=*/false), want,
                       c.name);
  }
}

TEST(LastTaxonBatch, CountingMatchesCollectingUnderLimitsInsideFrames) {
  for (const Case& c : cases()) {
    const auto problem = build_problem(c.constraints, c.options);
    const auto ends = frame_ends(problem, c.options, 3);
    ASSERT_EQ(ends.size(), 3u) << c.name << ": too few batched frames";
    // 1..3 land inside the first frame or before it; each frame end, one
    // before it and one past it probe both sides of a frame boundary.
    std::vector<std::uint64_t> tree_limits{1, 2, 3};
    std::vector<std::uint64_t> state_limits{1, 2, 3};
    for (const auto& [trees, states] : ends) {
      for (const std::uint64_t d : {0, 1, 2}) {
        tree_limits.push_back(trees + d - 1);
        state_limits.push_back(states + d - 1);
      }
    }
    for (const std::uint64_t limit : tree_limits) {
      Options opts = c.options;
      opts.stop.max_stand_trees = limit;
      expect_same_counts(serial(problem, opts, false),
                         serial(problem, opts, true),
                         c.name + " max_stand_trees=" + std::to_string(limit));
    }
    for (const std::uint64_t limit : state_limits) {
      Options opts = c.options;
      opts.stop.max_states = limit;
      expect_same_counts(serial(problem, opts, false),
                         serial(problem, opts, true),
                         c.name + " max_states=" + std::to_string(limit));
    }
  }
}

// offer_min_remaining = 1 lets a worker hand half of a last-taxon frame to
// another worker; the batch must then count only the branches it kept, and
// the thief counts the rest through its own (unbatched) frame.
TEST(LastTaxonBatch, DriversMatchSerialWhenLastTaxonFramesAreOffered) {
  for (const Case& c : cases()) {
    const auto problem = build_problem(c.constraints, c.options);
    Options opts = c.options;
    opts.offer_min_remaining = 1;
    const Result want = serial(problem, opts, /*collect=*/false);
    for (const Scheduler sched :
         {Scheduler::kCentralQueue, Scheduler::kDistributedDeques}) {
      opts.scheduler = sched;
      const std::string tag = c.name + " " + to_string(sched);
      for (const std::size_t nt : {2UL, 4UL}) {
        expect_same_counts(parallel::run_parallel(problem, opts, nt), want,
                           tag + " pool nt=" + std::to_string(nt));
      }
      for (const std::size_t nt : {2UL, 4UL, 8UL}) {
        expect_same_counts(vthread::run_virtual(problem, opts, nt), want,
                           tag + " virtual nt=" + std::to_string(nt));
      }
    }
  }
}

TEST(LastTaxonBatch, FloodOffersLastTaxonFramesAtMinRemainingOne) {
  // Guards the test above: the only frames offered at a minimum of 1
  // remaining taxon but not at 2 are last-taxon frames.
  const auto flood = datagen::make_flood_instance(7, 3);
  const auto problem = build_problem(flood.constraints, Options{});
  Options opts;
  opts.offer_min_remaining = 2;
  const auto without = vthread::run_virtual(problem, opts, 4);
  opts.offer_min_remaining = 1;
  const auto with = vthread::run_virtual(problem, opts, 4);
  EXPECT_GT(with.tasks_offered, without.tasks_offered);
  EXPECT_EQ(with.stand_trees, without.stand_trees);
}

// An offer floor above the taxon count leaves the workers only their
// initial-split slices: nothing is offered, and the count stays exact.
TEST(OfferMinRemaining, FloorAboveEveryFrameDisablesAllOffers) {
  const auto ds = datagen::make_flood_instance(/*depth=*/6, /*seed=*/1);
  Options opts;
  opts.select_initial_tree = false;
  opts.initial_constraint = *ds.forced_initial_constraint;
  opts.dynamic_taxon_order = false;
  opts.insertion_order = ds.forced_insertion_order;
  opts.offer_min_remaining = 1'000;  // no frame ever qualifies
  const auto problem = build_problem(ds.constraints, opts);
  const Result want = run_serial(problem, opts);
  const Result r = vthread::run_virtual(problem, opts, 4);
  EXPECT_EQ(r.tasks_offered, 0u);
  EXPECT_EQ(r.stand_trees, want.stand_trees);
}

}  // namespace
}  // namespace gentrius::core
