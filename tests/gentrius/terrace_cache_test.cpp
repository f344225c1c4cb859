// Mapping maintenance under edge-id recycling (phylo::Tree hands out edge
// ids from LIFO free lists), checked through choose_dynamic against the
// recompute reference: an incremental = false terrace, which rebuilds every
// mapping at every state.
//
// A randomized DFS with heavy backtracking frees edge ids and hands them to
// later inserts while the incremental terrace keeps its mappings current in
// place: batched foreign-taxon slot updates, splits at the next choice of a
// taxon and merges on removal. The walk advances via choose_static and
// compares choose_dynamic's choice and branch set with the reference every
// fifth step. Loci are kept sparse so many taxon pairs share no
// constraint. The in-place mapping is authoritative here: its comparison
// with a rebuild (mapping_matches_rebuild) is gated behind
// GENTRIUS_ENABLE_EXPENSIVE_INVARIANTS (off by default even in debug), so
// divergence surfaces as a mismatch against the reference engine, exactly
// as it would in a release build.
#include <gtest/gtest.h>

#include <vector>

#include "datagen/dataset.hpp"
#include "gentrius/terrace.hpp"
#include "support/rng.hpp"

namespace gentrius::core {
namespace {

class CacheChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheChurn, DynamicChoiceMatchesNonIncrementalUnderBacktracking) {
  support::Rng rng(GetParam());
  datagen::SimulatedParams sp;
  sp.n_taxa = 16 + rng.below(12);
  sp.n_loci = 8 + rng.below(5);
  sp.missing_fraction = 0.55 + 0.2 * rng.uniform();
  sp.seed = GetParam() * 977 + 13;
  const auto ds = datagen::make_simulated(sp);

  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  Terrace inc(problem, /*incremental=*/true);
  Terrace ref(problem, /*incremental=*/false);
  ASSERT_TRUE(inc.initial_state_consistent());

  struct Level {
    InsertRecord inc_rec, ref_rec;
  };
  std::vector<Level> stack;
  std::vector<EdgeId> bi, br;
  for (int step = 0; step < 1200; ++step) {
    // Periodic full comparison: every admissible count of the incremental
    // engine must match the rebuild-every-state reference.
    if (step % 5 == 0) {
      const auto ci = inc.choose_dynamic(bi);
      const auto cr = ref.choose_dynamic(br);
      ASSERT_EQ(ci.taxon, cr.taxon)
          << "step " << step << " seed " << GetParam();
      ASSERT_EQ(ci.complete, cr.complete) << "step " << step;
      ASSERT_EQ(ci.dead_end, cr.dead_end) << "step " << step;
      ASSERT_EQ(bi, br) << "taxon " << ci.taxon << " step " << step
                        << " seed " << GetParam();
    }
    // Random backtracking keeps the free lists churning, so freed edge ids
    // are re-allocated to later inserts while the mappings stay in place.
    if (!stack.empty() && (inc.remaining_count() == 0 || rng.bernoulli(0.4))) {
      inc.remove(stack.back().inc_rec);
      ref.remove(stack.back().ref_rec);
      stack.pop_back();
      continue;
    }
    if (inc.remaining_count() == 0) break;
    // Advance along a random admissible insertion (choose_static counts no
    // other taxon).
    const auto remaining = inc.remaining();
    const TaxonId pick = remaining[rng.below(remaining.size())];
    inc.choose_static(pick, bi);
    ref.choose_static(pick, br);
    ASSERT_EQ(bi, br) << "taxon " << pick << " step " << step << " seed "
                      << GetParam();
    if (bi.empty()) {
      if (stack.empty()) break;
      inc.remove(stack.back().inc_rec);
      ref.remove(stack.back().ref_rec);
      stack.pop_back();
      continue;
    }
    const EdgeId e = bi[rng.below(bi.size())];
    const InsertRecord ri = inc.insert(pick, e);
    const InsertRecord rr = ref.insert(pick, e);
    stack.push_back(Level{ri, rr});
  }
  while (!stack.empty()) {
    inc.remove(stack.back().inc_rec);
    ref.remove(stack.back().ref_rec);
    stack.pop_back();
  }
  EXPECT_EQ(inc.remaining_count(), problem.missing_count());
  EXPECT_TRUE(inc.initial_state_consistent());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheChurn,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace gentrius::core
