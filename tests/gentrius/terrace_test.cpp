// Direct validation of the double-edge-mapping machinery: at random
// intermediate states, the Terrace's admissible-branch sets must equal the
// definitional set {e : agile+x@e restricted to common taxa equals the
// constraint's restriction} for every remaining taxon.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "datagen/dataset.hpp"
#include "gentrius/terrace.hpp"
#include "phylo/newick.hpp"
#include "phylo/topology.hpp"
#include "support/rng.hpp"

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

TEST(InitialState, ClusterCheckAgreesWithCompatible) {
  // initial_state_consistent compares rank-interval clusters; the reference
  // is phylo::compatible (restrict both trees, compare encodings) between
  // the initial tree and every constraint. Swapping two leaf labels in one
  // constraint makes a good share of the instances inconsistent.
  std::size_t inconsistent = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    support::Rng rng(seed);
    datagen::SimulatedParams sp;
    sp.n_taxa = 6 + rng.below(14);
    sp.n_loci = 2 + rng.below(5);
    sp.missing_fraction = 0.15 + 0.4 * rng.uniform();
    sp.seed = seed * 104729 + 1;
    auto constraints = datagen::make_simulated(sp).constraints;
    auto& victim = constraints[rng.below(constraints.size())];
    const auto taxa = victim.taxa();
    const TaxonId a = taxa[rng.below(taxa.size())];
    TaxonId b = a;
    while (b == a) b = taxa[rng.below(taxa.size())];
    victim = swap_labels(victim, a, b);

    Options opts;
    const auto problem = build_problem(constraints, opts);
    const auto& initial = problem.constraints[problem.initial_constraint];
    bool expected = true;
    for (const auto& c : problem.constraints)
      expected = expected && phylo::compatible(initial, c);
    EXPECT_EQ(Terrace(problem).initial_state_consistent(), expected)
        << "seed " << seed;
    if (!expected) ++inconsistent;
  }
  EXPECT_GT(inconsistent, 50u);
}

TEST(Terrace, DynamicChoiceIsTheMinimum) {
  support::Rng rng(404);
  datagen::SimulatedParams sp;
  sp.n_taxa = 12;
  sp.n_loci = 3;
  sp.missing_fraction = 0.45;
  sp.seed = 404;
  const auto ds = datagen::make_simulated(sp);
  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  Terrace terrace(problem);

  std::vector<EdgeId> branches, other;
  while (terrace.remaining_count() > 0) {
    const auto choice = terrace.choose_dynamic(branches);
    if (choice.complete || choice.dead_end) break;
    for (const TaxonId x : terrace.remaining()) {
      terrace.choose_static(x, other);
      EXPECT_GE(other.size(), branches.size());
    }
    terrace.choose_static(choice.taxon, branches);
    terrace.insert(choice.taxon, branches[0]);
  }
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
