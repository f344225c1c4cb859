// Direct validation of the double-edge-mapping machinery: at random
// intermediate states, the Terrace's admissible-branch sets must equal the
// definitional set {e : agile+x@e restricted to common taxa equals the
// constraint's restriction} for every remaining taxon.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "datagen/dataset.hpp"
#include "datagen/tree_gen.hpp"
#include "gentrius/serial.hpp"
#include "gentrius/terrace.hpp"
#include "parallel/pool.hpp"
#include "phylo/newick.hpp"
#include "phylo/topology.hpp"
#include "support/rng.hpp"
#include "vthread/virtual_pool.hpp"

namespace gentrius::core {
namespace {

/// Definitional admissibility: try the insertion and test the invariant.
std::vector<EdgeId> definitional_branches(Terrace& terrace,
                                          const Problem& problem, TaxonId x) {
  std::vector<EdgeId> out;
  for (const EdgeId e : terrace.agile().live_edges()) {
    const auto rec = terrace.insert(x, e);
    bool ok = true;
    for (const std::uint32_t i : problem.trees_of_taxon[x]) {
      // common taxa of the extended agile tree and T_i
      std::vector<TaxonId> common;
      problem.constraint_taxa[i].for_each([&](std::size_t t) {
        if (terrace.agile().has_taxon(static_cast<TaxonId>(t)))
          common.push_back(static_cast<TaxonId>(t));
      });
      const auto a = phylo::restrict_to(terrace.agile(), common);
      const auto b = phylo::restrict_to(problem.constraints[i], common);
      if (!phylo::same_topology(a, b)) {
        ok = false;
        break;
      }
    }
    terrace.remove(rec);
    if (ok) out.push_back(e);
  }
  return out;
}

class TerraceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TerraceProperty, MappingEqualsDefinitionAtRandomStates) {
  support::Rng rng(GetParam());
  datagen::SimulatedParams sp;
  sp.n_taxa = 6 + rng.below(10);
  sp.n_loci = 2 + rng.below(4);
  sp.missing_fraction = 0.25 + 0.4 * rng.uniform();
  sp.seed = GetParam() * 31 + 7;
  const auto ds = datagen::make_simulated(sp);

  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  Terrace terrace(problem);
  ASSERT_TRUE(terrace.initial_state_consistent());

  std::vector<EdgeId> branches;
  std::vector<InsertRecord> applied;
  // Walk a random valid path, checking every remaining taxon at each state.
  for (int depth = 0; depth < 64 && terrace.remaining_count() > 0; ++depth) {
    const auto remaining = terrace.remaining();
    for (const TaxonId x : remaining) {
      const auto choice = terrace.choose_static(x, branches);
      ASSERT_EQ(choice.taxon, x);
      auto expected = definitional_branches(terrace, problem, x);
      auto got = branches;
      std::sort(got.begin(), got.end());
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(got, expected)
          << "taxon " << x << " at depth " << depth << " seed " << GetParam();
    }
    // Advance along a random admissible insertion (if any taxon fits).
    const TaxonId pick =
        remaining[rng.below(remaining.size())];
    terrace.choose_static(pick, branches);
    if (branches.empty()) break;  // dead end: stop this walk
    applied.push_back(
        terrace.insert(pick, branches[rng.below(branches.size())]));
  }
  // Unwind and verify the terrace returns to a consistent initial state.
  for (auto it = applied.rbegin(); it != applied.rend(); ++it)
    terrace.remove(*it);
  EXPECT_EQ(terrace.remaining_count(), problem.missing_count());
  EXPECT_TRUE(terrace.initial_state_consistent());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TerraceProperty,
                         ::testing::Range<std::uint64_t>(1, 25));

/// Every remaining taxon has the same admissible branch set in `inc` as in
/// the rebuild-every-state reference `ref`.
::testing::AssertionResult same_branch_sets(Terrace& inc, Terrace& ref) {
  if (inc.remaining() != ref.remaining())
    return ::testing::AssertionFailure() << "remaining taxa differ";
  std::vector<EdgeId> bi, br;
  for (const TaxonId x : inc.remaining()) {
    inc.choose_static(x, bi);
    ref.choose_static(x, br);
    if (bi != br)
      return ::testing::AssertionFailure()
             << "taxon " << x << ": " << bi.size() << " vs " << br.size()
             << " branches";
  }
  return ::testing::AssertionSuccess();
}

TEST(SplitMergeChurn, BranchSetsMatchRebuildAfterEveryMutation) {
  // Random LIFO walks — inserts, re-inserts on sibling branches, unwinds —
  // compared after every insert and every remove against an
  // incremental = false terrace, which rebuilds every mapping at every
  // state. The walks must reach each case of local maintenance: a
  // constraint parked by its last open taxon, |C_i| 1 -> 2 and 2 -> 1,
  // replays of several inserts with no choose in between (as adopt_task
  // does), and inadmissible probes followed by valid inserts and an unwind.
  std::size_t parks = 0;
  std::size_t activations = 0;
  std::size_t deactivations = 0;
  std::size_t probes = 0;
  std::size_t probes_built_on = 0;
  std::size_t replays = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    support::Rng rng(seed);
    datagen::SimulatedParams sp;
    sp.n_taxa = 8 + rng.below(10);
    sp.n_loci = 3 + rng.below(5);
    sp.missing_fraction = 0.3 + 0.4 * rng.uniform();
    sp.seed = seed * 7919 + 3;
    const auto ds = datagen::make_simulated(sp);
    Options opts;
    const auto problem = build_problem(ds.constraints, opts);
    Terrace inc(problem, /*incremental=*/true);
    Terrace ref(problem, /*incremental=*/false);

    auto common = [&](std::uint32_t i) {
      std::size_t c = 0;
      problem.constraint_taxa[i].for_each([&](std::size_t t) {
        c += inc.is_inserted(static_cast<TaxonId>(t)) ? 1 : 0;
      });
      return c;
    };
    struct Level {
      InsertRecord ri, rr;
      TaxonId x;
      EdgeId e;
      bool admissible;
    };
    std::vector<Level> stack;
    std::vector<std::pair<TaxonId, EdgeId>> deepest;
    std::size_t inadmissible_live = 0;
    auto push = [&](TaxonId x, EdgeId e, bool admissible) {
      for (const std::uint32_t i : problem.trees_of_taxon[x]) {
        const std::size_t c = common(i);
        if (c == 1) ++activations;
        if (c >= 2 && problem.constraint_taxa[i].count() == c + 1) ++parks;
      }
      if (inadmissible_live > 0 && admissible) ++probes_built_on;
      if (!admissible) ++inadmissible_live;
      stack.push_back(
          Level{inc.insert(x, e), ref.insert(x, e), x, e, admissible});
    };
    auto pop = [&] {
      const Level top = stack.back();
      stack.pop_back();
      for (const std::uint32_t i : problem.trees_of_taxon[top.x])
        if (common(i) == 2) ++deactivations;
      if (!top.admissible) --inadmissible_live;
      inc.remove(top.ri);
      ref.remove(top.rr);
      return top;
    };

    std::vector<EdgeId> branches;
    for (int step = 0; step < 160; ++step) {
      if (!stack.empty() &&
          (inc.remaining_count() == 0 || rng.bernoulli(0.3))) {
        const Level top = pop();
        ASSERT_TRUE(same_branch_sets(inc, ref)) << "step " << step;
        // Re-insert on a sibling branch half of the time.
        inc.choose_static(top.x, branches);
        if (branches.size() >= 2 && rng.bernoulli(0.5)) {
          EdgeId e = top.e;
          while (e == top.e) e = branches[rng.below(branches.size())];
          push(top.x, e, true);
          ASSERT_TRUE(same_branch_sets(inc, ref)) << "step " << step;
        }
        continue;
      }
      if (inc.remaining_count() == 0) break;
      const auto remaining = inc.remaining();
      const TaxonId x = remaining[rng.below(remaining.size())];
      inc.choose_static(x, branches);
      if (rng.bernoulli(0.15)) {
        // Inadmissible probe: an edge outside x's admissible set, kept for
        // further inserts half of the time.
        std::vector<EdgeId> outside;
        for (const EdgeId e : inc.agile().live_edges())
          if (!std::binary_search(branches.begin(), branches.end(), e))
            outside.push_back(e);
        if (!outside.empty()) {
          push(x, outside[rng.below(outside.size())], false);
          ++probes;
          ASSERT_TRUE(same_branch_sets(inc, ref)) << "probe, step " << step;
          if (rng.bernoulli(0.5)) {
            pop();
            ASSERT_TRUE(same_branch_sets(inc, ref)) << "step " << step;
          }
          continue;
        }
      }
      if (branches.empty()) {
        if (stack.empty()) break;
        pop();
        ASSERT_TRUE(same_branch_sets(inc, ref)) << "step " << step;
        continue;
      }
      push(x, branches[rng.below(branches.size())], true);
      ASSERT_TRUE(same_branch_sets(inc, ref)) << "step " << step;
      if (stack.size() > deepest.size()) {
        deepest.clear();
        for (const Level& l : stack) deepest.emplace_back(l.x, l.e);
      }
    }
    while (!stack.empty()) {
      pop();
      ASSERT_TRUE(same_branch_sets(inc, ref)) << "unwind";
    }

    // Replay the deepest path with no choose in between, then unwind.
    for (const auto& [x, e] : deepest) push(x, e, true);
    if (deepest.size() >= 2) ++replays;
    ASSERT_TRUE(same_branch_sets(inc, ref)) << "after replay";
    while (!stack.empty()) {
      pop();
      ASSERT_TRUE(same_branch_sets(inc, ref)) << "replay unwind";
    }
    EXPECT_TRUE(inc.initial_state_consistent());
  }
  EXPECT_GT(parks, 0u);
  EXPECT_GT(activations, 0u);
  EXPECT_GT(deactivations, 0u);
  EXPECT_GT(probes, 0u);
  EXPECT_GT(probes_built_on, 0u);
  EXPECT_GT(replays, 0u);
}

/// Copy of `tree` with the labels of taxa a and b exchanged.
phylo::Tree swap_labels(const phylo::Tree& tree, TaxonId a, TaxonId b) {
  phylo::Tree out;
  std::vector<VertexId> id(tree.vertex_capacity(), phylo::kNoId);
  for (VertexId v = 0; v < tree.vertex_capacity(); ++v) {
    if (!tree.vertex_alive(v)) continue;
    TaxonId t = tree.vertex(v).taxon;
    if (t == a)
      t = b;
    else if (t == b)
      t = a;
    id[v] = out.alloc_vertex(t);
  }
  tree.for_each_edge([&](EdgeId e) {
    out.alloc_edge(id[tree.edge(e).u], id[tree.edge(e).v]);
  });
  return out;
}

/// Whether constraint i of `problem` holds a taxon the initial tree lacks.
bool has_open_taxa(const Problem& problem, std::size_t i) {
  const auto& y = problem.constraint_taxa[i];
  return y.intersection_count(
             problem.constraint_taxa[problem.initial_constraint]) < y.count();
}

TEST(InitialState, FirstBuildCheckAgreesWithCompatible) {
  // initial_state_consistent is the first mapping build plus Day's cluster
  // comparison for constraints without open taxa; the reference is
  // phylo::compatible (restrict both trees, compare encodings) between the
  // initial tree and every constraint. Swapping 1-3 leaf-label pairs in
  // random constraints makes a good share of the instances inconsistent;
  // among those, some conflict only on constraints with open taxa (the
  // mapping build must catch them) and some only on constraints without
  // (Day's pass must). Both mapping modes, and a second call, must agree.
  std::size_t inconsistent = 0, open_only = 0, closed_only = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    support::Rng rng(seed);
    datagen::SimulatedParams sp;
    sp.n_taxa = 6 + rng.below(16);
    sp.n_loci = 2 + rng.below(6);
    sp.missing_fraction = 0.1 + 0.5 * rng.uniform();
    sp.seed = seed * 104729 + 1;
    auto constraints = datagen::make_simulated(sp).constraints;
    const std::size_t swaps = rng.below(4);
    for (std::size_t k = 0; k < swaps; ++k) {
      auto& victim = constraints[rng.below(constraints.size())];
      const auto taxa = victim.taxa();
      const TaxonId a = taxa[rng.below(taxa.size())];
      TaxonId b = a;
      while (b == a) b = taxa[rng.below(taxa.size())];
      victim = swap_labels(victim, a, b);
    }

    Options opts;
    const auto problem = build_problem(constraints, opts);
    const auto& initial = problem.constraints[problem.initial_constraint];
    bool open_conflict = false, closed_conflict = false;
    for (std::size_t i = 0; i < problem.constraints.size(); ++i) {
      if (phylo::compatible(initial, problem.constraints[i])) continue;
      (has_open_taxa(problem, i) ? open_conflict : closed_conflict) = true;
    }
    const bool expected = !open_conflict && !closed_conflict;
    for (const bool incremental : {true, false}) {
      Terrace terrace(problem, incremental);
      EXPECT_EQ(terrace.initial_state_consistent(), expected)
          << "seed " << seed << " incremental " << incremental;
      EXPECT_EQ(terrace.initial_state_consistent(), expected)
          << "second call, seed " << seed << " incremental " << incremental;
    }
    if (!expected) ++inconsistent;
    if (open_conflict && !closed_conflict) ++open_only;
    if (closed_conflict && !open_conflict) ++closed_only;
  }
  EXPECT_GT(inconsistent, 400u);
  EXPECT_GT(open_only, 200u);
  EXPECT_GT(closed_only, 60u);
}

/// Where a deliberately built root conflict sits: on a constraint with open
/// taxa, on one whose taxa all lie in the initial tree (only Day's pass
/// sees it), or on one whose open taxa all target an S-edge the initial
/// tree has (only the slots of T_i's other edges show it).
enum class Conflict { kOpen, kClosed, kUntargeted };

/// Constraints restricted from one random tree: the initial tree (index 0)
/// on all but the 2-3 open taxa, one small constraint per open taxon, and a
/// victim on 5-7 initial taxa built for `kind`. With `conflict`, two of the
/// victim's initial taxa swap labels, so that it alone disagrees with the
/// initial tree on their common taxa; without, the instance is consistent.
std::vector<phylo::Tree> conflict_instance(Conflict kind, bool conflict,
                                           std::uint64_t seed) {
  support::Rng rng(seed);
  const std::size_t n = 12 + rng.below(6);
  const std::size_t n_open = 2 + rng.below(2);
  std::vector<TaxonId> all(n);
  for (std::size_t t = 0; t < n; ++t) all[t] = static_cast<TaxonId>(t);
  const phylo::Tree truth = datagen::random_tree(all, rng);
  const std::vector<TaxonId> y0(all.begin(), all.end() - n_open);
  const std::vector<TaxonId> open(all.end() - n_open, all.end());
  auto pick = [&](std::size_t k) {
    auto v = y0;
    rng.shuffle(v);
    v.resize(k);
    return v;
  };

  std::vector<phylo::Tree> trees{phylo::restrict_to(truth, y0)};
  for (const TaxonId x : open) {
    auto keep = pick(4 + rng.below(3));
    keep.push_back(x);
    trees.push_back(phylo::restrict_to(truth, keep));
  }
  const auto c = pick(5 + rng.below(3));
  auto keep = c;
  if (kind == Conflict::kOpen) keep.push_back(open[rng.below(n_open)]);
  phylo::Tree victim = phylo::restrict_to(truth, keep);
  if (conflict) {
    // c[0] stays put: the untargeted kind hangs the open taxa on it.
    for (;;) {
      const TaxonId a = c[1 + rng.below(c.size() - 1)];
      const TaxonId b = c[1 + rng.below(c.size() - 1)];
      if (a == b) continue;
      phylo::Tree swapped = swap_labels(victim, a, b);
      if (phylo::same_topology(phylo::restrict_to(swapped, c),
                               phylo::restrict_to(victim, c)))
        continue;
      victim = std::move(swapped);
      break;
    }
  }
  if (kind == Conflict::kUntargeted) {
    // Every open taxon goes on the pendant edge of c[0] or of the open
    // taxon before it, so all of them target the trivial S-edge of c[0].
    TaxonId anchor = c[0];
    for (const TaxonId x : open) {
      victim.insert_leaf(x, victim.vertex(victim.leaf_of(anchor)).adj[0].edge);
      anchor = x;
    }
  }
  trees.push_back(std::move(victim));
  return trees;
}

TEST(InitialState, DeliberateConflictsAreEmptyStandsInSerialPoolAndSimulator) {
  // Each kind of root conflict, against its conflict-free twin: the check's
  // verdict, its agreement with phylo::compatible, and the reason reported
  // by run_serial, the pool under both schedulers and the simulator. Only
  // the conflicting instances are empty stands, with 0 trees; their serial
  // runs still count the first mapping build's rebuilds.
  const std::pair<Conflict, const char*> kinds[] = {
      {Conflict::kOpen, "open"},
      {Conflict::kClosed, "closed"},
      {Conflict::kUntargeted, "untargeted"}};
  for (const auto& [kind, name] : kinds) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      for (const bool conflict : {true, false}) {
        const auto trees = conflict_instance(kind, conflict, seed);
        Options opts;
        opts.initial_constraint = 0;
        const auto problem = build_problem(trees, opts);
        const std::size_t victim = trees.size() - 1;
        const std::string where = std::string(name) + " seed " +
                                  std::to_string(seed) + " conflict " +
                                  std::to_string(conflict);
        ASSERT_EQ(has_open_taxa(problem, victim), kind != Conflict::kClosed)
            << where;
        bool compatible = true;
        for (const auto& t : trees)
          compatible = compatible && phylo::compatible(trees[0], t);
        ASSERT_EQ(compatible, !conflict) << where;
        for (const bool incremental : {true, false}) {
          Terrace terrace(problem, incremental);
          EXPECT_EQ(terrace.initial_state_consistent(), !conflict) << where;
          EXPECT_EQ(terrace.initial_state_consistent(), !conflict) << where;
        }

        std::vector<std::pair<std::string, Result>> runs;
        runs.emplace_back("serial", run_serial(problem, opts));
        for (const auto scheduler : {Scheduler::kCentralQueue,
                                     Scheduler::kDistributedDeques}) {
          Options po = opts;
          po.scheduler = scheduler;
          runs.emplace_back(to_string(scheduler),
                            parallel::run_parallel(problem, po, 2));
        }
        runs.emplace_back("virtual", vthread::run_virtual(problem, opts, 4));
        for (const auto& [run, r] : runs) {
          const std::string what = run + " " + where;
          if (conflict) {
            EXPECT_EQ(r.reason, StopReason::kEmptyStand) << what;
            EXPECT_EQ(r.stand_trees, 0u) << what;
          } else {
            EXPECT_NE(r.reason, StopReason::kEmptyStand) << what;
          }
        }
        if (conflict) {
          EXPECT_GT(runs[0].second.selection.mappings_rebuilt, 0u) << where;
        }
      }
    }
  }
}

// choose_dynamic against its definition at every state of random LIFO
// walks: for both variants, the expected choice is derived from the
// choose_static branch counts of remaining() and from the active degrees
// (constraints of the taxon with >= 2 inserted taxa). The instances overlap
// heavily, so most candidates have >= 2 active constraints and the counts,
// existence probes and branch sets come from the multi-constraint preimage
// walk. Every choice applies the pending splits, so the unwinds merge them;
// a complete tree unwinds to a random depth, which keeps the walk among the
// middle depths where dead ends occur.
class DynamicChoice : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicChoice, MatchesItsDefinitionOnRandomWalks) {
  support::Rng rng(GetParam());
  datagen::SimulatedParams sp;
  sp.n_taxa = 20 + rng.below(12);
  sp.n_loci = 8 + rng.below(4);
  sp.missing_fraction = 0.55 + 0.1 * rng.uniform();
  sp.seed = GetParam() * 6007 + 11;
  const auto ds = datagen::make_simulated(sp);
  const auto problem = build_problem(ds.constraints, Options{});
  ASSERT_GT(problem.missing_count(), 0u);
  Terrace terrace(problem);

  auto degree = [&](TaxonId x) {
    std::size_t d = 0;
    for (const auto& y : problem.constraint_taxa) {
      if (!y.test(x)) continue;
      std::size_t common = 0;
      y.for_each([&](std::size_t t) {
        common += terrace.is_inserted(static_cast<TaxonId>(t)) ? 1 : 0;
      });
      if (common >= 2) ++d;
    }
    return d;
  };

  std::size_t candidates = 0;
  std::size_t multi = 0;
  std::size_t dead_ends_after_one = 0;
  std::size_t unwinds = 0;
  std::vector<InsertRecord> path;
  std::vector<EdgeId> branches;
  std::vector<EdgeId> expected;
  for (int step = 0; step < 2000; ++step) {
    const std::vector<TaxonId> remaining = terrace.remaining();
    if (remaining.empty()) {
      for (std::size_t k = 1 + rng.below(path.size()); k > 0; --k) {
        terrace.remove(path.back());
        path.pop_back();
      }
      continue;
    }
    const std::size_t n = remaining.size();
    std::vector<std::size_t> count(n);
    std::vector<std::size_t> deg(n);
    for (std::size_t k = 0; k < n; ++k) {
      terrace.choose_static(remaining[k], expected);
      count[k] = expected.size();
      deg[k] = degree(remaining[k]);
      ++candidates;
      if (deg[k] >= 2) ++multi;
    }
    // Lowest-id zero; lowest-id minimum; most constrained, then fewest
    // branches, then lowest id.
    const std::size_t dead = static_cast<std::size_t>(
        std::find(count.begin(), count.end(), 0u) - count.begin());
    std::size_t fewest = 0;
    std::size_t most = 0;
    for (std::size_t k = 1; k < n; ++k) {
      if (count[k] < count[fewest]) fewest = k;
      if (deg[k] > deg[most] || (deg[k] == deg[most] && count[k] < count[most]))
        most = k;
    }
    // kMinBranches switches to existence probes at the first count of 1.
    if (dead < n && std::find(count.begin(), count.begin() + dead, 1u) !=
                        count.begin() + dead)
      ++dead_ends_after_one;
    for (const auto variant : {Options::DynamicVariant::kMinBranches,
                               Options::DynamicVariant::kMostConstrained}) {
      const bool min_branches =
          variant == Options::DynamicVariant::kMinBranches;
      SCOPED_TRACE("step " + std::to_string(step) +
                   (min_branches ? " kMinBranches" : " kMostConstrained"));
      const std::size_t want = dead < n ? dead : min_branches ? fewest : most;
      const auto choice = terrace.choose_dynamic(branches, variant);
      ASSERT_FALSE(choice.complete);
      ASSERT_EQ(choice.dead_end, dead < n);
      ASSERT_EQ(choice.taxon, remaining[want]);
      terrace.choose_static(choice.taxon, expected);
      ASSERT_EQ(branches, expected);
    }
    if (!path.empty() && (dead < n || rng.bernoulli(0.2))) {
      terrace.remove(path.back());
      path.pop_back();
      ++unwinds;
      continue;
    }
    ASSERT_EQ(dead, n);  // the initial state of a simulated instance is live
    const TaxonId x = remaining[rng.below(n)];
    terrace.choose_static(x, expected);
    path.push_back(terrace.insert(x, expected[rng.below(expected.size())]));
  }
  EXPECT_GT(2 * multi, candidates);
  EXPECT_GT(dead_ends_after_one, 0u);
  EXPECT_GT(unwinds, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicChoice,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(Terrace, CopyIsAnIndependentValue) {
  // A copy taken mid-search owns its mapping blocks and scratch: driving
  // either side deeper into the search changes no admissible set of the
  // other, and the copy answers what the original answered.
  datagen::SimulatedParams sp;
  sp.n_taxa = 24;
  sp.n_loci = 6;
  sp.missing_fraction = 0.6;
  sp.seed = 78;
  const auto problem =
      build_problem(datagen::make_simulated(sp).constraints, Options{});
  std::vector<EdgeId> branches;
  auto descend = [&](Terrace& t, std::size_t inserts) {
    for (std::size_t k = 0; k < inserts && t.remaining_count() > 0; ++k) {
      const auto choice = t.choose_dynamic(branches);
      if (choice.dead_end) break;
      t.insert(choice.taxon, branches.back());
    }
  };
  auto admissible_sets = [&](Terrace& t) {
    std::vector<std::vector<EdgeId>> out;
    for (const TaxonId x : t.remaining()) {
      t.choose_static(x, branches);
      out.push_back(branches);
    }
    return out;
  };

  Terrace original(problem);
  ASSERT_TRUE(original.initial_state_consistent());
  descend(original, 3);
  Terrace copy = original;
  const auto before = admissible_sets(original);
  ASSERT_GE(before.size(), 4u);
  descend(original, 4);
  EXPECT_EQ(admissible_sets(copy), before);
  descend(copy, 4);
  EXPECT_NE(admissible_sets(copy), before);

  Terrace second = copy;
  const auto deeper = admissible_sets(copy);
  descend(copy, 100);
  EXPECT_EQ(admissible_sets(second), deeper);
}

TEST(Terrace, NeverActivatedConstraintStaysUnallocated) {
  // Constraint 1's taxa all sit inside the initial tree (constraint 0), so
  // it never has an open taxon, never activates, and its mapping storage —
  // the agile-side arrays and the T_i edge-slot array alike — must never be
  // allocated: the peak-memory half of the lazy-allocation contract.
  // Constraint 2 carries the free taxa w and v and therefore must allocate.
  phylo::TaxonSet taxa;
  std::vector<phylo::Tree> cs;
  cs.push_back(phylo::parse_newick("((a,b),c,(d,e));", taxa));
  cs.push_back(phylo::parse_newick("(a,c,d);", taxa));
  cs.push_back(phylo::parse_newick("((a,w),b,(c,v));", taxa));
  Options opts;
  opts.initial_constraint = 0;
  const auto problem = build_problem(cs, opts);
  Terrace terrace(problem);
  EXPECT_EQ(terrace.constraint_storage_bytes(1), 0u);

  std::vector<EdgeId> branches;
  std::vector<InsertRecord> path;
  while (terrace.remaining_count() > 0) {
    const auto choice = terrace.choose_dynamic(branches);
    if (choice.complete || choice.dead_end) break;
    path.push_back(terrace.insert(choice.taxon, branches[0]));
  }
  EXPECT_TRUE(path.size() >= 1);
  EXPECT_EQ(terrace.constraint_storage_bytes(0), 0u);
  EXPECT_EQ(terrace.constraint_storage_bytes(1), 0u);
  // Constraint 2 holds, among others, one slot per edge of its own tree.
  EXPECT_GE(terrace.constraint_storage_bytes(2),
            problem.constraints[2].edge_capacity() * sizeof(std::uint32_t));
  EXPECT_EQ(terrace.mapping_storage_bytes(),
            terrace.constraint_storage_bytes(2));

  // Rewinding to the initial state keeps the pooled storage (capacities are
  // reused, not freed) and still never touches the inactive constraints.
  const std::size_t bytes = terrace.mapping_storage_bytes();
  for (auto it = path.rbegin(); it != path.rend(); ++it) terrace.remove(*it);
  EXPECT_EQ(terrace.constraint_storage_bytes(1), 0u);
  EXPECT_EQ(terrace.mapping_storage_bytes(), bytes);
}

}  // namespace
}  // namespace gentrius::core
