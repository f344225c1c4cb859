// Last-taxon batching (Enumerator::step): a run that does not collect trees
// counts each kept admissible branch of the last remaining taxon as one
// intermediate state and one stand tree, without inserting it, and a
// two-taxon frame in closed form where its taxa cannot interact. Collecting
// runs still insert every branch, so they are the reference: states, trees,
// dead ends and the stop reason must agree with no limits and with limits
// that land inside a last-taxon or a two-taxon frame (in every one-worker
// run, where those limits are exact), and every driver,
// whose workers hand frames to each other above the last two levels, must
// agree with the serial count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "datagen/dataset.hpp"
#include "drivers.hpp"
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
  // Two-taxon frames that share a constraint target (then the last taxon
  // is counted on its own), and a static order whose two-taxon frames hold
  // dead ends (a dynamic order finds those one level up).
  sim("shared_targets_20x4", 20, 4, 0.5, 24);
  sim("static_dead_ends_23x7", 23, 7, 0.5, 7);
  out.back().options.dynamic_taxon_order = false;
  out.back().options.shuffle_seed = 7;
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

struct Totals {
  std::uint64_t trees = 0, states = 0, dead_ends = 0;
};

/// A step of a counting run that counted more than one unit: a last-taxon
/// frame (as many states as stand trees) or a two-taxon frame counted in
/// closed form (one more state per branch of its first taxon).
struct FrameStep {
  Totals before, after;
  bool two_taxon() const {
    return after.states - before.states > after.trees - before.trees;
  }
  bool has_dead_end() const { return after.dead_ends > before.dead_ends; }
};

/// The multi-unit steps among the first `max_steps` steps of a counting run.
std::vector<FrameStep> frame_steps(const Problem& problem, Options opts,
                                   std::size_t max_steps) {
  opts.collect_trees = false;
  opts.tree_flush_batch = opts.state_flush_batch = 1;
  opts.dead_end_flush_batch = 1;
  // Shared, so that only the batches place flushes: every unit is published
  // and the sink's totals between steps are exact.
  CounterSink sink(opts.stop, /*workers=*/2);
  Enumerator e(problem, opts, sink);
  const auto& prefix = e.run_prefix(/*count=*/true);
  std::vector<FrameStep> frames;
  if (prefix.outcome != Enumerator::Prefix::Outcome::kSplit) return frames;
  e.begin_branches(prefix.split_taxon, prefix.branches);
  const auto totals = [&] {
    return Totals{sink.stand_trees(), sink.states(), sink.dead_ends()};
  };
  Totals before = totals();
  for (std::size_t k = 0;
       k < max_steps && e.step() == Enumerator::Step::kWorked; ++k) {
    const Totals after = totals();
    const std::uint64_t units = (after.trees - before.trees) +
                                (after.states - before.states) +
                                (after.dead_ends - before.dead_ends);
    if (units > 1) frames.push_back({before, after});
    before = after;
  }
  return frames;
}

void expect_counting_matches_collecting(const Problem& problem,
                                        const Options& base,
                                        const std::string& name,
                                        std::uint64_t max_trees,
                                        std::uint64_t max_states) {
  Options opts = base;
  opts.stop.max_stand_trees = max_trees;
  opts.stop.max_states = max_states;
  const Result want = serial(problem, opts, true);
  // Every one-worker run counts frames in closed form and stops exactly.
  for (const auto& driver : driver_test::kDrivers) {
    expect_same_counts(driver.run(problem, opts, 1), want,
                       name + " " + driver.name +
                           " max_stand_trees=" + std::to_string(max_trees) +
                           " max_states=" + std::to_string(max_states));
  }
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
  const Options no_limit;
  const std::uint64_t all_trees = no_limit.stop.max_stand_trees;
  const std::uint64_t all_states = no_limit.stop.max_states;
  std::size_t last_frames = 0, two_frames = 0, dead_end_frames = 0;
  for (const Case& c : cases()) {
    const auto problem = build_problem(c.constraints, c.options);
    const auto frames = frame_steps(problem, c.options, 100'000);
    std::vector<FrameStep> last, two;
    const FrameStep* with_dead_end = nullptr;
    for (const FrameStep& f : frames) {
      if (!f.two_taxon() && last.size() < 3) last.push_back(f);
      if (f.two_taxon() && two.size() < 3) two.push_back(f);
      if (f.two_taxon() && f.has_dead_end() && with_dead_end == nullptr)
        with_dead_end = &f;
    }
    last_frames += last.size();
    two_frames += two.size();
    // 1..3 land inside the first frame or before it; each last-taxon
    // frame's end, one before it and one past it probe both sides of a
    // frame boundary.
    std::vector<std::uint64_t> tree_limits{1, 2, 3};
    std::vector<std::uint64_t> state_limits{1, 2, 3};
    for (const FrameStep& f : last) {
      for (const std::uint64_t d : {0, 1, 2}) {
        tree_limits.push_back(f.after.trees + d - 1);
        state_limits.push_back(f.after.states + d - 1);
      }
    }
    // In a two-taxon frame, a limit on every unit: each state (the first
    // taxon's, then the second's), each stand tree, and so the states on
    // both sides of a dead end; and one just past the frame.
    if (with_dead_end != nullptr) {
      two.push_back(*with_dead_end);
      ++dead_end_frames;
    }
    for (const FrameStep& f : two) {
      for (std::uint64_t t = f.before.trees + 1; t <= f.after.trees + 1; ++t)
        tree_limits.push_back(t);
      for (std::uint64_t s = f.before.states + 1; s <= f.after.states + 1; ++s)
        state_limits.push_back(s);
    }
    for (const std::uint64_t limit : tree_limits)
      expect_counting_matches_collecting(problem, c.options, c.name, limit,
                                         all_states);
    for (const std::uint64_t limit : state_limits)
      expect_counting_matches_collecting(problem, c.options, c.name,
                                         all_trees, limit);
  }
  // Every kind of frame was probed.
  EXPECT_GT(last_frames, 0u);
  EXPECT_GT(two_frames, 0u);
  EXPECT_GT(dead_end_frames, 0u);
}

// Workers offer frames down to the paper's floor of 3 open taxa, so the
// last two levels are never handed off and both closed forms run on every
// worker: each driver counts what the serial driver counts.
TEST(LastTaxonBatch, DriversMatchSerialWithBothClosedForms) {
  for (const Case& c : cases()) {
    const auto problem = build_problem(c.constraints, c.options);
    Options opts = c.options;
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

// Without work stealing the workers keep only their initial-split slices:
// nothing is offered, and the count stays exact.
TEST(StaticSplit, OffersNoTasksAndCountsExactly) {
  const auto ds = datagen::make_flood_instance(/*depth=*/6, /*seed=*/1);
  Options opts;
  opts.select_initial_tree = false;
  opts.initial_constraint = *ds.forced_initial_constraint;
  opts.dynamic_taxon_order = false;
  opts.insertion_order = ds.forced_insertion_order;
  const auto problem = build_problem(ds.constraints, opts);
  const Result want = run_serial(problem, opts);
  const Result r = vthread::run_virtual_static_split(problem, opts, 4);
  EXPECT_EQ(r.tasks_offered, 0u);
  EXPECT_EQ(r.stand_trees, want.stand_trees);
  EXPECT_EQ(r.intermediate_states, want.intermediate_states);
  EXPECT_EQ(r.dead_ends, want.dead_ends);
}

}  // namespace
}  // namespace gentrius::core
