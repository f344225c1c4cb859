// Closed-form residual differential: run_sharded with
// ShardRunOptions::residual_closed_form must reproduce the enumerated
// driver byte for byte — same count, same sorted stand set, same residual
// shard count — across the random multi-component sweep, and the formula
// must stay exact (128-bit intermediates) right up to the uint64 boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "benchutil/corpus.hpp"
#include "decompose/components.hpp"
#include "decompose/shard_exec.hpp"
#include "decompose/sharded.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"

namespace gentrius {
namespace {

using core::Options;
using core::Result;
using core::ShardStats;
using core::StopReason;
using decompose_test::kProductLawSeeds;
using decompose_test::sorted_trees;

benchutil::MultiComponentParams params_for_seed(std::uint64_t seed) {
  support::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  benchutil::MultiComponentParams p;
  p.n_components = 2;
  p.min_taxa_per_component = 4;
  p.max_taxa_per_component = 4 + rng.below(2);
  p.loci_per_component = 1 + rng.below(3);
  p.missing_fraction = 0.2 + 0.3 * rng.uniform();
  p.seed = seed;
  return p;
}

/// A synthetic split with the given enumerable component sizes.
decompose::ComponentSplit split_of(const std::vector<std::size_t>& sizes) {
  decompose::ComponentSplit split;
  phylo::TaxonId next = 0;
  for (const std::size_t s : sizes) {
    decompose::Component comp;
    comp.enumerable = true;
    for (std::size_t i = 0; i < s; ++i) comp.taxa.push_back(next++);
    split.components.push_back(comp);
    split.enumerable_count += 1;
  }
  return split;
}

TEST(ClosedFormResidual, MatchesEnumeratedDriverOverRandomSeeds) {
  for (std::uint64_t seed = 1; seed <= kProductLawSeeds; ++seed) {
    const auto ds = benchutil::make_multi_component(params_for_seed(seed));
    SCOPED_TRACE(ds.name);
    Options opts;
    opts.collect_trees = true;

    Result enumerated = decompose::run_sharded(ds.constraints, opts, {});
    decompose::ShardRunOptions closed_run;
    closed_run.residual_closed_form = true;
    Result closed = decompose::run_sharded(ds.constraints, opts, closed_run);

    ASSERT_EQ(enumerated.reason, StopReason::kCompleted);
    ASSERT_EQ(closed.reason, StopReason::kCompleted);
    EXPECT_EQ(closed.stand_trees, enumerated.stand_trees);
    EXPECT_EQ(closed.count_saturated, enumerated.count_saturated);
    EXPECT_EQ(sorted_trees(closed), sorted_trees(enumerated));

    // The residual rollup carries the same count with zero expansion cost.
    ASSERT_FALSE(closed.shards.empty());
    const ShardStats& res_closed = closed.shards.back();
    const ShardStats& res_enum = enumerated.shards.back();
    ASSERT_EQ(res_closed.kind, ShardStats::Kind::kResidual);
    EXPECT_EQ(res_closed.stand_trees, res_enum.stand_trees);
    EXPECT_EQ(res_closed.intermediate_states, 0u);
    EXPECT_LT(closed.intermediate_states, enumerated.intermediate_states);
  }
}

TEST(ClosedFormResidual, FallsBackToEnumerationWithPassThroughConstraints) {
  // A 2-taxon constraint on taxa of its own is a non-enumerable component:
  // the closed form does not apply, so the residual is probed and
  // enumerated, and a counting run must still build the labels the probes
  // read.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto ds = benchutil::make_multi_component(params_for_seed(seed));
    SCOPED_TRACE(ds.name);
    const auto n = static_cast<phylo::TaxonId>(ds.taxon_count());
    ds.constraints.push_back(phylo::Tree::star({n, n + 1}));
    const Options counting;

    const Result enumerated =
        decompose::run_sharded(ds.constraints, counting, {});
    decompose::ShardRunOptions closed_run;
    closed_run.residual_closed_form = true;
    const Result closed =
        decompose::run_sharded(ds.constraints, counting, closed_run);

    ASSERT_EQ(closed.reason, StopReason::kCompleted);
    EXPECT_GT(closed.stand_trees, 0u);
    EXPECT_EQ(closed.stand_trees, enumerated.stand_trees);
    ASSERT_EQ(closed.shards.size(), enumerated.shards.size());
    for (std::size_t i = 0; i < closed.shards.size(); ++i)
      EXPECT_EQ(closed.shards[i].stand_trees, enumerated.shards[i].stand_trees);
    const ShardStats& residual = closed.shards.back();
    ASSERT_EQ(residual.kind, ShardStats::Kind::kResidual);
    EXPECT_EQ(residual.n_constraints, enumerated.shards.back().n_constraints);
    EXPECT_GT(residual.intermediate_states, 0u);
  }
}

TEST(ClosedFormResidual, FormulaMatchesTestutilOnSyntheticSplits) {
  const std::vector<std::vector<std::size_t>> cases = {
      {4}, {4, 4}, {4, 5}, {5, 6}, {3, 3, 3}, {4, 4, 4}, {4, 4, 4, 4}};
  for (const auto& sizes : cases) {
    const auto split = split_of(sizes);
    const auto cf = decompose::detail::closed_form_residual(split);
    ASSERT_TRUE(cf.applicable);
    EXPECT_FALSE(cf.saturated);
    EXPECT_EQ(cf.count, decompose_test::closed_form_interleavings(split));
  }
}

TEST(ClosedFormResidual, ExactPastThe64BitNumeratorBoundary) {
  // Universe 20 (five 4-taxon components): the numerator 35!! overflows
  // uint64 but M = 35!!/3^5 does not — the 128-bit path must stay exact.
  const auto cf =
      decompose::detail::closed_form_residual(split_of({4, 4, 4, 4, 4}));
  ASSERT_TRUE(cf.applicable);
  EXPECT_FALSE(cf.saturated);
  // 35!! = 221643095476699771875 = 2^64 * 12.01...; /243 exactly:
  EXPECT_EQ(cf.count, 912111504019340625ULL);
}

TEST(ClosedFormResidual, SaturatesInsteadOfOverflowing) {
  const auto big =
      decompose::detail::closed_form_residual(split_of({4, 4, 4, 4, 4, 4}));
  ASSERT_TRUE(big.applicable);
  EXPECT_TRUE(big.saturated);
  EXPECT_EQ(big.count, std::numeric_limits<std::uint64_t>::max());

  // Universe past the 128-bit numerator range saturates too.
  std::vector<std::size_t> huge(10, 4);
  const auto wide = decompose::detail::closed_form_residual(split_of(huge));
  ASSERT_TRUE(wide.applicable);
  EXPECT_TRUE(wide.saturated);
}

TEST(ClosedFormResidual, NotApplicableWithPassthroughComponents) {
  auto split = split_of({4, 4});
  decompose::Component pair;
  pair.enumerable = false;
  pair.taxa = {8, 9};
  split.components.push_back(pair);
  EXPECT_FALSE(decompose::detail::closed_form_residual(split).applicable);
}

}  // namespace
}  // namespace gentrius
