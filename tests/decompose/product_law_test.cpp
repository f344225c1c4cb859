// Differential product-law harness.
//
// Sweeps hundreds of random block-structured multi-component instances and
// checks, per seed, that the sharded driver agrees with
//   (a) the monolithic engine: identical stand count AND identical stand
//       tree set (sorted canonical Newick),
//   (b) the closed form: count == prod_i count(C_i) * M with the residual
//       shard's count equal to M = (2n-5)!! / prod_i (2n_i-5)!!,
//   (c) on small universes, the brute-force oracle (the definition),
// and that Result::count_exact flags every count the law does not
// guarantee (two blocks of >= 6 taxa).
// Sanitizer builds run a reduced seed set (testutil.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "benchutil/corpus.hpp"
#include "decompose/components.hpp"
#include "decompose/sharded.hpp"
#include "gentrius/serial.hpp"
#include "oracle/brute_force.hpp"
#include "phylo/newick.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"

namespace gentrius {
namespace {

using core::Options;
using core::Result;
using core::ShardStats;
using core::StopReason;
using decompose_test::closed_form_interleavings;
using decompose_test::kProductLawSeeds;
using decompose_test::sorted_trees;

benchutil::MultiComponentParams params_for_seed(std::uint64_t seed) {
  support::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  benchutil::MultiComponentParams p;
  p.n_components = 2;
  p.min_taxa_per_component = 4;
  // Capped at 5 taxa per block so the monolithic reference enumeration
  // (count = prod c_i * M, M up to 9009 at 5+5) stays cheap per seed.
  p.max_taxa_per_component = 4 + rng.below(2);
  p.loci_per_component = 1 + rng.below(3);
  p.missing_fraction = 0.2 + 0.3 * rng.uniform();
  p.seed = seed;
  return p;
}

Options collecting() {
  Options o;
  o.collect_trees = true;
  return o;
}

TEST(ProductLaw, DifferentialOverRandomSeeds) {
  std::uint64_t multi_component_seeds = 0;
  for (std::uint64_t seed = 1; seed <= kProductLawSeeds; ++seed) {
    const auto ds = benchutil::make_multi_component(params_for_seed(seed));
    SCOPED_TRACE(ds.name);

    Options mono = collecting();
    Result reference = core::run_serial(ds.constraints, mono);
    ASSERT_EQ(reference.reason, StopReason::kCompleted);

    Result sharded = decompose::run_sharded(ds.constraints, collecting());
    ASSERT_EQ(sharded.reason, StopReason::kCompleted);

    // (a) differential against the monolithic engine.
    EXPECT_EQ(sharded.stand_trees, reference.stand_trees);
    EXPECT_EQ(sorted_trees(sharded), sorted_trees(reference));
    EXPECT_FALSE(sharded.count_saturated);
    EXPECT_TRUE(sharded.count_exact);

    // (b) closed form: residual == M, total == product of components * M.
    const auto split = decompose::analyze_components(ds.constraints);
    if (split.components.size() > 1) ++multi_component_seeds;
    ASSERT_EQ(sharded.shards.size(), split.enumerable_count + 1);
    const ShardStats& residual = sharded.shards.back();
    ASSERT_EQ(residual.kind, ShardStats::Kind::kResidual);
    EXPECT_EQ(residual.stand_trees, closed_form_interleavings(split));
    std::uint64_t product = 1;
    for (const ShardStats& s : sharded.shards) {
      if (s.kind == ShardStats::Kind::kComponent) {
        ASSERT_NE(&s, &sharded.shards.back());  // canonical order
      }
      product *= s.stand_trees;
    }
    EXPECT_EQ(product, sharded.stand_trees);
  }
  // The generator must actually exercise decomposition, not degenerate to
  // single-component instances.
  EXPECT_EQ(multi_component_seeds, kProductLawSeeds);
}

TEST(ProductLaw, OracleOnSmallUniverses) {
  // 4+4-taxon instances: the whole universe (8 taxa, 10395 trees) is small
  // enough for the brute-force definition of a stand.
  const std::uint64_t seeds = kProductLawSeeds / 5;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    benchutil::MultiComponentParams p;
    p.n_components = 2;
    p.min_taxa_per_component = 4;
    p.max_taxa_per_component = 4;
    p.loci_per_component = 1 + seed % 2;
    p.missing_fraction = 0.25;
    p.seed = seed * 31 + 5;
    const auto ds = benchutil::make_multi_component(p);
    SCOPED_TRACE(ds.name);

    Options opts = collecting();
    opts.tree_names = nullptr;  // canonical encodings, like the oracle
    Result sharded = decompose::run_sharded(ds.constraints, opts);
    const auto oracle = oracle::brute_force_stand(ds.constraints);
    EXPECT_EQ(sharded.stand_trees, oracle.size());
    EXPECT_EQ(sorted_trees(sharded), oracle);
  }
}

TEST(ProductLaw, CountExactImpliesTheMonolithicCount) {
  // Two blocks of 4-7 taxa. The product law guarantees the count only when
  // at most one block has >= 6 taxa; run_sharded must say which case it is
  // in through count_exact on both residual paths, and wherever it claims
  // an exact count that count must be the monolithic engine's.
#if defined(GENTRIUS_SANITIZED_BUILD)
  constexpr std::uint64_t kSeeds = 40;
#else
  constexpr std::uint64_t kSeeds = 60;
#endif
  std::uint64_t checked = 0;
  std::uint64_t flagged = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    benchutil::MultiComponentParams p;
    p.n_components = 2;
    p.min_taxa_per_component = 4;
    p.max_taxa_per_component = 7;
    p.loci_per_component = 3;
    p.missing_fraction = seed % 2 == 0 ? 0.4 : 0.5;
    p.seed = seed;
    const auto ds = benchutil::make_multi_component(p);
    SCOPED_TRACE(ds.name);
    const auto split = decompose::analyze_components(ds.constraints);
    std::size_t large_blocks = 0;
    for (const auto& comp : split.components)
      if (comp.enumerable && comp.taxa.size() >= 6) ++large_blocks;

    Options opts;
    opts.stop.max_stand_trees = std::numeric_limits<std::uint64_t>::max();
    const Result enumerated = decompose::run_sharded(ds.constraints, opts);
    decompose::ShardRunOptions closed_form;
    closed_form.residual_closed_form = true;
    const Result closed =
        decompose::run_sharded(ds.constraints, opts, closed_form);
    ASSERT_EQ(enumerated.reason, StopReason::kCompleted);
    ASSERT_EQ(closed.reason, StopReason::kCompleted);
    ASSERT_GT(enumerated.stand_trees, 0u);
    EXPECT_EQ(enumerated.count_exact, large_blocks <= 1);
    EXPECT_EQ(closed.count_exact, large_blocks <= 1);
    if (!enumerated.count_exact) {
      ++flagged;
      continue;
    }
    const Result mono = core::run_serial(ds.constraints, opts);
    ASSERT_EQ(mono.reason, StopReason::kCompleted);
    EXPECT_EQ(enumerated.stand_trees, mono.stand_trees);
    EXPECT_EQ(closed.stand_trees, mono.stand_trees);
    ++checked;
  }
  // Both cases occur: the sweep is not vacuous either way.
  EXPECT_GE(checked, kSeeds / 2);
  EXPECT_GT(flagged, 0u);
}

TEST(ProductLaw, CraftedCaterpillarCounts) {
  // Hand-checkable closed forms: one fully-resolved constraint per block
  // pins each component count to 1, so the whole count is exactly M.
  phylo::TaxonSet taxa;
  std::vector<phylo::Tree> constraints;
  constraints.push_back(
      phylo::parse_newick("((a0,a1),(a2,a3));", taxa));  // 4 taxa
  constraints.push_back(
      phylo::parse_newick("((b0,b1),b2,(b3,(b4,b5)));", taxa));  // 6 taxa
  const Result r = decompose::run_sharded(constraints, Options{});
  // M = 15!! / (3!! * 7!!) = 2027025 / (3 * 105) = 6435.
  EXPECT_EQ(r.stand_trees, 6435u);
  EXPECT_EQ(r.reason, StopReason::kCompleted);
  EXPECT_TRUE(r.count_exact);  // one component of >= 6 taxa
}

TEST(ProductLaw, EmptyComponentYieldsEmptyStand) {
  phylo::TaxonSet taxa;
  std::vector<phylo::Tree> constraints;
  // Contradictory quartets on the a-block: its component stand is empty.
  constraints.push_back(phylo::parse_newick("((a0,a1),(a2,a3));", taxa));
  constraints.push_back(phylo::parse_newick("((a0,a2),(a1,a3));", taxa));
  constraints.push_back(phylo::parse_newick("((b0,b1),(b2,b3));", taxa));
  const Result sharded = decompose::run_sharded(constraints, collecting());
  EXPECT_EQ(sharded.stand_trees, 0u);
  EXPECT_TRUE(sharded.trees.empty());
  const Result mono = core::run_serial(constraints, collecting());
  EXPECT_EQ(mono.stand_trees, 0u);
}

TEST(ProductLaw, SixTaxonBlocksStreamTheMonolithicStand) {
  // With two components of >= 6 taxa the interleaving count depends on the
  // component trees' shapes, so the product is not the stand size here
  // (297,295 against 296,783 monolithic; DESIGN.md "Decomposition") and
  // run_sharded must flag it. The stand union holds at any size: the
  // streamed cross product must be the monolithic stand, and streaming
  // tuples of other shapes than the representatives' must not trip an
  // invariant.
  benchutil::MultiComponentParams p;
  p.n_components = 2;
  p.min_taxa_per_component = 6;
  p.max_taxa_per_component = 6;
  p.loci_per_component = 3;
  p.missing_fraction = 0.4;
  p.seed = 3;
  const auto ds = benchutil::make_multi_component(p);
  ASSERT_EQ(decompose::analyze_components(ds.constraints).enumerable_count,
            2u);

  Result reference = core::run_serial(ds.constraints, collecting());
  ASSERT_EQ(reference.reason, StopReason::kCompleted);
  EXPECT_EQ(reference.stand_trees, 296'783u);
  Result sharded = decompose::run_sharded(ds.constraints, collecting());
  EXPECT_EQ(sharded.reason, StopReason::kCompleted);
  EXPECT_EQ(sharded.stand_trees, 297'295u);
  EXPECT_FALSE(sharded.count_exact);
  EXPECT_EQ(sorted_trees(sharded), sorted_trees(reference));
}

TEST(ProductLaw, ShardStoppingRulePropagates) {
  const auto ds = benchutil::make_multi_component(params_for_seed(9));
  Options opts;
  opts.stop.max_stand_trees = 1;  // fires inside the residual shard
  const Result r = decompose::run_sharded(ds.constraints, opts);
  EXPECT_NE(r.reason, StopReason::kCompleted);
}

TEST(ProductLaw, CollectLimitTruncatesStream) {
  const auto ds = benchutil::make_multi_component(params_for_seed(4));
  Options opts = collecting();
  opts.collect_limit = 7;
  Result sharded = decompose::run_sharded(ds.constraints, opts);
  ASSERT_GT(sharded.stand_trees, 7u);  // count is exact regardless
  EXPECT_EQ(sharded.trees.size(), 7u);
  // The truncated prefix is a subset of the true stand.
  Result reference = core::run_serial(ds.constraints, collecting());
  const auto full = sorted_trees(reference);
  for (const auto& t : sharded.trees)
    EXPECT_TRUE(std::binary_search(full.begin(), full.end(), t));
}

}  // namespace
}  // namespace gentrius
