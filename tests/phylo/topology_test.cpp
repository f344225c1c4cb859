#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/tree_gen.hpp"
#include "phylo/newick.hpp"
#include "phylo/topology.hpp"
#include "support/rng.hpp"

namespace gentrius::phylo {
namespace {

Tree parse(const char* s, TaxonSet& taxa) { return parse_newick(s, taxa); }

TEST(Topology, RestrictionBasics) {
  TaxonSet taxa;
  const Tree t = parse("((a,b),(c,d),(e,f));", taxa);
  const auto id = [&](const char* n) { return taxa.id_of(n); };

  const Tree r = restrict_to(t, {id("a"), id("c"), id("e"), id("f")});
  const Tree expected = parse("(a,c,(e,f));", taxa);
  EXPECT_TRUE(same_topology(r, expected));

  const Tree r2 = restrict_to(t, {id("a"), id("b")});
  EXPECT_EQ(r2.leaf_count(), 2u);
  const Tree r1 = restrict_to(t, {id("d")});
  EXPECT_EQ(r1.leaf_count(), 1u);
  const Tree r0 = restrict_to(t, {});
  EXPECT_EQ(r0.leaf_count(), 0u);
}

TEST(Topology, RestrictionIgnoresAbsentTaxa) {
  TaxonSet taxa;
  const Tree t = parse("((a,b),c,(d,e));", taxa);
  const TaxonId ghost = taxa.add("ghost");
  const Tree r = restrict_to(t, {taxa.id_of("a"), taxa.id_of("b"), ghost});
  EXPECT_EQ(r.leaf_count(), 2u);
}

TEST(Topology, DisplaysAndCompatible) {
  TaxonSet taxa;
  const Tree big = parse("((a,b),(c,d),(e,f));", taxa);
  const Tree sub_good = parse("((a,b),(c,e));", taxa);
  const Tree sub_bad = parse("((a,c),(b,e));", taxa);
  EXPECT_TRUE(displays(big, sub_good));
  EXPECT_FALSE(displays(big, sub_bad));
  EXPECT_TRUE(compatible(big, sub_good));
  EXPECT_FALSE(compatible(big, sub_bad));
  // Trees with <= 3 common taxa are always compatible.
  const Tree other = parse("((a,x),(y,z));", taxa);
  EXPECT_TRUE(compatible(big, other));
  // A tree with a taxon outside `big` is never displayed by it.
  EXPECT_FALSE(displays(big, other));
}

TEST(Topology, CompatibilityIsSymmetric) {
  support::Rng rng(99);
  for (int round = 0; round < 40; ++round) {
    std::vector<TaxonId> ta, tb;
    for (TaxonId i = 0; i < 12; ++i) {
      if (rng.bernoulli(0.7)) ta.push_back(i);
      if (rng.bernoulli(0.7)) tb.push_back(i);
    }
    if (ta.size() < 4 || tb.size() < 4) continue;
    const Tree a = datagen::random_tree(ta, rng);
    const Tree b = datagen::random_tree(tb, rng);
    EXPECT_EQ(compatible(a, b), compatible(b, a));
  }
}

TEST(Topology, InducedSubtreesAreDisplayedAndCompatible) {
  support::Rng rng(123);
  std::vector<TaxonId> all;
  for (TaxonId i = 0; i < 30; ++i) all.push_back(i);
  const Tree species = datagen::random_tree(all, rng);

  for (int round = 0; round < 20; ++round) {
    std::vector<TaxonId> ya, yb;
    for (const TaxonId t : all) {
      if (rng.bernoulli(0.6)) ya.push_back(t);
      if (rng.bernoulli(0.6)) yb.push_back(t);
    }
    const Tree a = restrict_to(species, ya);
    const Tree b = restrict_to(species, yb);
    EXPECT_TRUE(displays(species, a));
    EXPECT_TRUE(displays(species, b));
    EXPECT_TRUE(compatible(a, b));  // both derive from one species tree
  }
}

TEST(Topology, RestrictionComposes) {
  // (T|Y1)|Y2 == T|(Y1 ∩ Y2)
  support::Rng rng(321);
  std::vector<TaxonId> all;
  for (TaxonId i = 0; i < 24; ++i) all.push_back(i);
  for (int round = 0; round < 20; ++round) {
    const Tree t = datagen::random_tree(all, rng);
    std::vector<TaxonId> y1, y2, inter;
    for (const TaxonId x : all) {
      const bool in1 = rng.bernoulli(0.7);
      const bool in2 = rng.bernoulli(0.7);
      if (in1) y1.push_back(x);
      if (in2) y2.push_back(x);
      if (in1 && in2) inter.push_back(x);
    }
    const Tree lhs = restrict_to(restrict_to(t, y1), y2);
    const Tree rhs = restrict_to(t, inter);
    EXPECT_TRUE(same_topology(lhs, rhs));
  }
}

TEST(Topology, HashMatchesEncodingEquality) {
  support::Rng rng(777);
  std::vector<TaxonId> all;
  for (TaxonId i = 0; i < 10; ++i) all.push_back(i);
  std::vector<Tree> trees;
  for (int i = 0; i < 30; ++i) trees.push_back(datagen::random_tree(all, rng));
  for (const auto& a : trees) {
    for (const auto& b : trees) {
      const bool same = canonical_encoding(a) == canonical_encoding(b);
      EXPECT_EQ(same, same_topology(a, b));
      if (same) {
        EXPECT_EQ(topology_hash(a), topology_hash(b));
      }
    }
  }
}

TEST(Topology, CommonTaxaSorted) {
  TaxonSet taxa;
  const Tree a = parse("((a,b),(c,d));", taxa);
  const Tree b = parse("((d,b),(x,y));", taxa);
  const auto common = common_taxa(a, b);
  EXPECT_EQ(common.size(), 2u);
  EXPECT_TRUE(std::is_sorted(common.begin(), common.end()));
}

}  // namespace
}  // namespace gentrius::phylo
