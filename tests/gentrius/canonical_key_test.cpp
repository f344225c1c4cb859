// Differential suite of the canonical key: core::canonicalize_instance and
// core::rank_newick against the direct reference in canonical_oracle.hpp.
// The encoding is a ResultCache key and golden-trace text, so encoding,
// order, invariance flag and fingerprint must be equal byte for byte on
// every instance family the cache sees.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "benchutil/corpus.hpp"
#include "benchutil/edit_stream.hpp"
#include "canonical_oracle.hpp"
#include "datagen/dataset.hpp"
#include "datagen/tree_gen.hpp"
#include "decompose/components.hpp"
#include "decompose/shard_exec.hpp"
#include "gentrius/problem.hpp"
#include "incremental/delta.hpp"
#include "phylo/newick.hpp"
#include "support/rng.hpp"

namespace gentrius {
namespace {

/// Compares the key of one instance with the reference; returns the
/// reference's invariance flag.
bool expect_same_key(const std::vector<phylo::Tree>& instance) {
  const core::CanonicalInstance want =
      canonical_oracle::canonicalize_instance(instance);
  const core::CanonicalInstance got = core::canonicalize_instance(instance);
  EXPECT_EQ(got.encoding, want.encoding);
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(got.relabel_invariant, want.relabel_invariant);
  EXPECT_EQ(got.fp, want.fp);
  return want.relabel_invariant;
}

std::vector<phylo::TaxonId> first_taxa(std::size_t n) {
  std::vector<phylo::TaxonId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<phylo::TaxonId>(i);
  return ids;
}

TEST(CanonicalKey, MatchesReferenceOnSimulatedInstances) {
  constexpr std::uint64_t kInstances = 2500;
  support::Rng draw(0xca7071ULL);
  std::size_t parts = 0;
  for (std::uint64_t seed = 1; seed <= kInstances; ++seed) {
    datagen::SimulatedParams p;
    p.n_taxa = 6 + draw.below(40);  // 6..45
    p.n_loci = 2 + draw.below(7);   // 2..8
    p.missing_fraction = 0.20 + 0.45 * draw.uniform();
    p.seed = seed;
    const auto ds = datagen::make_simulated(p);
    SCOPED_TRACE(ds.name);
    expect_same_key(ds.constraints);
    if (decompose::analyze_components(ds.constraints).components.size() > 1)
      ++parts;
    if (HasFailure()) return;
  }
  // Part-by-part canonicalization is exercised too.
  EXPECT_GT(parts, 0u);
}

TEST(CanonicalKey, MatchesReferenceOnEmpiricalLikeInstances) {
  support::Rng draw(0xe3b1ULL);
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    datagen::EmpiricalLikeParams p;
    p.n_taxa = 8 + draw.below(53);  // 8..60
    p.n_loci = 2 + draw.below(9);   // 2..10
    p.seed = seed;
    const auto ds = datagen::make_empirical_like(p);
    SCOPED_TRACE(ds.name);
    expect_same_key(ds.constraints);
    if (HasFailure()) return;
  }
}

/// The components an incremental session keys while it replays the
/// wallbench pam-edits stream: the three-block instance, three below-floor
/// loci, and 100 edits each applied to the published matrix and reverted.
TEST(CanonicalKey, MatchesReferenceOnPamEditComponents) {
  constexpr std::size_t kFloor = 3;
  benchutil::MultiComponentParams params;
  params.n_components = 3;
  params.min_taxa_per_component = 16;
  params.max_taxa_per_component = 20;
  params.loci_per_component = 3;
  params.missing_fraction = 0.55;
  params.min_taxa_per_locus = kFloor;
  params.seed = 3;
  auto ds = benchutil::make_multi_component(params);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t locus = ds.pam.add_locus();
    ds.pam.set_present(
        static_cast<phylo::TaxonId>((5 * i) % ds.pam.taxon_count()), locus);
  }
  benchutil::EditStreamParams ep;
  ep.n_edits = 1;
  ep.min_taxa = kFloor;
  ep.noop_fraction = 0.25;

  std::size_t components = 0;
  const auto check = [&](const pam::Pam& pam) {
    const auto dec = decompose::analyze_pam(ds.species_tree, pam, kFloor);
    for (const auto& comp : dec.split.components) {
      if (!comp.enumerable) continue;
      expect_same_key(
          decompose::detail::subset_constraints(dec.constraints, comp));
      ++components;
    }
    expect_same_key(dec.constraints);  // the whole, part by part
  };
  for (std::uint64_t edit_seed = 1; edit_seed <= 100; ++edit_seed) {
    SCOPED_TRACE(edit_seed);
    ep.seed = edit_seed;
    const incremental::PamDelta edit =
        benchutil::make_edit_stream(ds.species_tree, ds.pam, ep).front();
    const incremental::PamDelta undo =
        edit.kind == incremental::EditKind::kFillCell
            ? incremental::PamDelta::clear_cell(edit.taxon, edit.locus)
            : incremental::PamDelta::fill_cell(edit.taxon, edit.locus);
    pam::Pam pam = ds.pam;
    incremental::apply_edit(pam, edit, ds.species_tree.leaf_count());
    check(pam);
    incremental::apply_edit(pam, undo, ds.species_tree.leaf_count());
    check(pam);
    if (HasFailure()) return;
  }
  EXPECT_EQ(components, 600u);
}

/// Random instances whose constraints include 1-, 2- and 3-leaf trees, on
/// taxa shared with larger trees and on taxa of their own.
TEST(CanonicalKey, MatchesReferenceWithOneTwoAndThreeLeafConstraints) {
  std::size_t small[4] = {0, 0, 0, 0};
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE(seed);
    support::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
    const std::size_t n = 4 + rng.below(17);  // 4..20 taxa
    const std::size_t extra = rng.below(4);   // taxa only small trees hold
    std::vector<phylo::Tree> instance;
    const std::size_t big = rng.below(3);
    for (std::size_t b = 0; b < big; ++b) {
      std::vector<phylo::TaxonId> taxa;
      for (const phylo::TaxonId x : first_taxa(n))
        if (rng.uniform() < 0.7) taxa.push_back(x);
      if (taxa.size() >= 4) instance.push_back(datagen::random_tree(taxa, rng));
    }
    const std::size_t n_small = 1 + rng.below(5);
    for (std::size_t s = 0; s < n_small; ++s) {
      const std::size_t size = 1 + rng.below(3);
      std::vector<phylo::TaxonId> pool = first_taxa(n + extra);
      rng.shuffle(pool);
      pool.resize(size);
      std::sort(pool.begin(), pool.end());
      instance.push_back(phylo::Tree::star(pool));
      ++small[size];
    }
    rng.shuffle(instance);
    expect_same_key(instance);
    if (HasFailure()) return;
  }
  EXPECT_GT(small[1], 0u);
  EXPECT_GT(small[2], 0u);
  EXPECT_GT(small[3], 0u);
}

/// A balanced tree on 32 taxa: every taxon has one color, the class is not
/// cherry twins, and individualizing any taxon leaves classes of the same
/// kind, so the individualization budget runs out and ties break by taxon
/// id.
TEST(CanonicalKey, MatchesReferenceWhenTheBudgetRunsOut) {
  phylo::TaxonSet taxa;
  std::vector<std::string> level;
  for (int i = 0; i < 32; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    taxa.add(name);
    level.push_back(name);
  }
  while (level.size() > 2) {
    std::vector<std::string> up;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      std::string pair = "(";
      pair += level[i];
      pair += ',';
      pair += level[i + 1];
      pair += ')';
      up.push_back(std::move(pair));
    }
    level = std::move(up);
  }
  std::string balanced = "(";
  balanced += level[0];
  balanced += ',';
  balanced += level[1];
  balanced += ");";
  const std::vector<phylo::Tree> instance = {
      phylo::parse_newick(balanced, taxa)};
  EXPECT_FALSE(expect_same_key(instance));
}

TEST(CanonicalKey, RankNewickMatchesReferenceUnderRandomRanks) {
  support::Rng rng(0x4a4bULL);
  for (std::uint64_t trial = 0; trial < 500; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t n = 1 + rng.below(40);
    const phylo::Tree tree = n <= 3 ? phylo::Tree::star(first_taxa(n))
                                    : datagen::random_tree(first_taxa(n), rng);
    std::vector<std::size_t> rank(n);
    for (std::size_t i = 0; i < n; ++i) rank[i] = i;
    rng.shuffle(rank);
    // Spread ranks out, up to seven digits (past the six-digit padding).
    for (std::size_t& r : rank) r = r * (1 + trial % 7) * 1009;
    rank[rng.below(n)] = 1000000 + rng.below(9000000);
    EXPECT_EQ(core::rank_newick(tree, rank),
              canonical_oracle::rank_newick(tree, rank));
    if (HasFailure()) return;
  }
  for (const std::size_t r : {0UL, 7UL, 42UL, 999999UL, 1000000UL, 12345678UL})
    EXPECT_EQ(core::canonical_rank_label(r), canonical_oracle::rank_label(r));
}

}  // namespace
}  // namespace gentrius
