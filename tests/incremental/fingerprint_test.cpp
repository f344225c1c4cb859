// Canonical-encoding invariance: the fingerprints that key the incremental
// result cache must not change when a dataset is relabeled (taxon ids
// permuted) or its loci/constraints reordered — those are presentations of
// the same instance, and a presentation change must stay a cache hit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "benchutil/corpus.hpp"
#include "gentrius/problem.hpp"
#include "pam/canonical.hpp"
#include "pam/pam.hpp"
#include "phylo/newick.hpp"
#include "support/fingerprint.hpp"
#include "support/rng.hpp"

namespace gentrius {
namespace {

#if defined(GENTRIUS_SANITIZED_BUILD)
constexpr std::uint64_t kSeeds = 40;
#else
constexpr std::uint64_t kSeeds = 200;
#endif

std::vector<std::size_t> random_perm(std::size_t n, support::Rng& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

pam::Pam random_pam(std::size_t n_taxa, std::size_t n_loci,
                    support::Rng& rng) {
  pam::Pam pam(n_taxa, n_loci);
  for (std::size_t l = 0; l < n_loci; ++l)
    for (phylo::TaxonId t = 0; t < n_taxa; ++t)
      if (rng.uniform() < 0.6) pam.set_present(t, l);
  return pam;
}

/// The same matrix with taxon t renamed to perm[t].
pam::Pam relabel_taxa(const pam::Pam& pam,
                      const std::vector<std::size_t>& perm) {
  pam::Pam out(pam.taxon_count(), pam.locus_count());
  for (std::size_t l = 0; l < pam.locus_count(); ++l)
    for (phylo::TaxonId t = 0; t < pam.taxon_count(); ++t)
      if (pam.present(t, l))
        out.set_present(static_cast<phylo::TaxonId>(perm[t]), l);
  return out;
}

/// The same matrix with locus l moved to position perm[l].
pam::Pam permute_loci(const pam::Pam& pam,
                      const std::vector<std::size_t>& perm) {
  pam::Pam out(pam.taxon_count(), pam.locus_count());
  for (std::size_t l = 0; l < pam.locus_count(); ++l)
    for (phylo::TaxonId t = 0; t < pam.taxon_count(); ++t)
      if (pam.present(t, l)) out.set_present(t, perm[l]);
  return out;
}

TEST(PamCanonical, TaxonRelabelInvariance) {
  std::uint64_t invariant = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed);
    const std::size_t n = 4 + rng.below(8);
    const std::size_t k = 1 + rng.below(4);
    const pam::Pam pam = random_pam(n, k, rng);
    const pam::Pam shuffled = relabel_taxa(pam, random_perm(n, rng));

    const auto a = pam::canonical_encode(pam);
    const auto b = pam::canonical_encode(shuffled);
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Budget exhaustion may only weaken invariance, never determinism.
    if (a.relabel_invariant && b.relabel_invariant) {
      EXPECT_EQ(a.encoding, b.encoding);
      EXPECT_EQ(a.fp, b.fp);
      ++invariant;
    }
    EXPECT_EQ(a.fp, pam::fingerprint(pam));
  }
  // The WL + twin-class canonicalizer should resolve these tiny matrices
  // within budget essentially always.
  EXPECT_GE(invariant, kSeeds * 9 / 10);
}

TEST(PamCanonical, LocusPermutationInvariance) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed ^ 0xabcdef);
    const std::size_t n = 4 + rng.below(8);
    const std::size_t k = 2 + rng.below(4);
    const pam::Pam pam = random_pam(n, k, rng);
    const pam::Pam shuffled = permute_loci(pam, random_perm(k, rng));
    // Locus order never enters the encoding (rows are emitted sorted), so
    // this holds unconditionally — even without relabel invariance.
    EXPECT_EQ(pam::canonical_encode(pam).encoding,
              pam::canonical_encode(shuffled).encoding);
  }
}

TEST(PamCanonical, CellFlipChangesEncoding) {
  support::Rng rng(7);
  const pam::Pam pam = random_pam(8, 3, rng);
  pam::Pam flipped = pam;
  flipped.set_present(3, 1, !pam.present(3, 1));
  // Different number of 1-cells: the encodings cannot coincide.
  EXPECT_NE(pam::canonical_encode(pam).encoding,
            pam::canonical_encode(flipped).encoding);
  EXPECT_NE(pam::fingerprint(pam), pam::fingerprint(flipped));
}

TEST(PamCanonical, DegenerateShapes) {
  const pam::Pam empty(5, 2);  // all-absent
  const auto a = pam::canonical_encode(empty);
  EXPECT_FALSE(a.encoding.empty());
  EXPECT_EQ(a.order.size(), 5u);

  pam::Pam full(3, 1);
  for (phylo::TaxonId t = 0; t < 3; ++t) full.set_present(t, 0);
  EXPECT_NE(pam::canonical_encode(full).fp, a.fp);
}

// ---- constraint-instance canonicalization ---------------------------------

/// Structurally identical constraint trees with taxon i renamed to perm[i]:
/// serialize under labels that carry the permutation, re-parse under a
/// densely pre-registered TaxonSet.
std::vector<phylo::Tree> relabel_instance(
    const std::vector<phylo::Tree>& constraints, std::size_t n_taxa,
    const std::vector<std::size_t>& perm) {
  phylo::TaxonSet as_perm;   // id i prints as "t<perm[i]>"
  phylo::TaxonSet as_dense;  // "t<j>" parses back to id j
  for (std::size_t i = 0; i < n_taxa; ++i)
    as_perm.add("t" + std::to_string(perm[i]));
  for (std::size_t j = 0; j < n_taxa; ++j)
    as_dense.add("t" + std::to_string(j));
  std::vector<phylo::Tree> out;
  out.reserve(constraints.size());
  for (const auto& tree : constraints)
    out.push_back(
        phylo::parse_newick(phylo::to_newick(tree, as_perm), as_dense));
  return out;
}

TEST(InstanceCanonical, TaxonRelabelInvariance) {
  std::uint64_t invariant = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    benchutil::MultiComponentParams p;
    p.n_components = 2;
    p.min_taxa_per_component = 4;
    p.max_taxa_per_component = 5;
    p.loci_per_component = 2;
    p.seed = seed;
    const auto ds = benchutil::make_multi_component(p);
    SCOPED_TRACE(ds.name);

    support::Rng rng(seed * 31 + 5);
    const auto relabeled = relabel_instance(
        ds.constraints, ds.taxon_count(), random_perm(ds.taxon_count(), rng));

    const auto a = core::canonicalize_instance(ds.constraints);
    const auto b = core::canonicalize_instance(relabeled);
    if (a.relabel_invariant && b.relabel_invariant) {
      EXPECT_EQ(a.encoding, b.encoding);
      EXPECT_EQ(a.fp, b.fp);
      ++invariant;
    }
    EXPECT_EQ(a.fp, core::instance_fingerprint(ds.constraints));
  }
  EXPECT_GE(invariant, kSeeds * 9 / 10);
}

TEST(InstanceCanonical, DisjointIsomorphicPartsStayRelabelInvariant) {
  // Three quartets on disjoint taxa, the shape of a decompose residual over
  // three 4-taxon components. As one instance the 12 taxa form a single
  // color class and the individualization budget runs out; canonicalized
  // part by part, every relabeling gives the same encoding.
  phylo::TaxonSet taxa;
  for (int i = 0; i < 12; ++i) taxa.add("t" + std::to_string(i));
  const std::vector<phylo::Tree> quartets = {
      phylo::parse_newick("((t0,t1),(t2,t3));", taxa),
      phylo::parse_newick("((t4,t6),(t5,t7));", taxa),
      phylo::parse_newick("((t8,t11),(t9,t10));", taxa)};
  const auto a = core::canonicalize_instance(quartets);
  EXPECT_TRUE(a.relabel_invariant);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    support::Rng rng(seed);
    const auto b = core::canonicalize_instance(
        relabel_instance(quartets, taxa.size(), random_perm(taxa.size(), rng)));
    EXPECT_TRUE(b.relabel_invariant);
    EXPECT_EQ(a.encoding, b.encoding);
  }
  // order still serializes the instance into its encoding.
  std::vector<std::size_t> rank(taxa.size(), 0);
  for (std::size_t r = 0; r < a.order.size(); ++r) rank[a.order[r]] = r;
  for (const auto& tree : quartets)
    EXPECT_NE(a.encoding.find(core::rank_newick(tree, rank)),
              std::string::npos);
}

TEST(InstanceCanonical, ConstraintOrderInvariance) {
  benchutil::MultiComponentParams p;
  p.n_components = 2;
  p.loci_per_component = 3;
  p.seed = 11;
  const auto ds = benchutil::make_multi_component(p);
  std::vector<phylo::Tree> reversed(ds.constraints.rbegin(),
                                    ds.constraints.rend());
  EXPECT_EQ(core::canonicalize_instance(ds.constraints).encoding,
            core::canonicalize_instance(reversed).encoding);
}

TEST(InstanceCanonical, OrderTranslatesRanksConsistently) {
  benchutil::MultiComponentParams p;
  p.seed = 3;
  const auto ds = benchutil::make_multi_component(p);
  const auto canon = core::canonicalize_instance(ds.constraints);
  // order is a permutation of the instance's taxa, and re-serializing any
  // constraint under it reproduces a line of the encoding.
  std::vector<std::size_t> rank(ds.taxon_count(),
                                static_cast<std::size_t>(-1));
  for (std::size_t r = 0; r < canon.order.size(); ++r)
    rank[canon.order[r]] = r;
  const std::string line = core::rank_newick(ds.constraints.front(), rank);
  EXPECT_NE(canon.encoding.find(line), std::string::npos);
}

TEST(InstanceCanonical, RankLabelFormat) {
  EXPECT_EQ(core::canonical_rank_label(0), "c000000");
  EXPECT_EQ(core::canonical_rank_label(42), "c000042");
  // Lexicographic label order == rank order is what keeps rank_newick's
  // sorted-subtree form deterministic.
  EXPECT_LT(core::canonical_rank_label(9), core::canonical_rank_label(10));
}

TEST(Fingerprint, BytesAndMix) {
  const auto a = support::fingerprint_bytes("gentrius");
  const auto b = support::fingerprint_bytes("gentrius");
  const auto c = support::fingerprint_bytes("gentriu");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(support::to_string(a).size(), 32u);
  EXPECT_NE(support::mix_hash(1, 2), support::mix_hash(2, 1));
}

}  // namespace
}  // namespace gentrius
