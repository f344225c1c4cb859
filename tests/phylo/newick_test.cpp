#include <gtest/gtest.h>

#include "datagen/tree_gen.hpp"
#include "phylo/newick.hpp"
#include "phylo/topology.hpp"
#include "support/rng.hpp"

namespace gentrius::phylo {
namespace {

TEST(Newick, ParseTrifurcatingRoot) {
  TaxonSet taxa;
  const Tree t = parse_newick("(a,b,(c,d));", taxa);
  EXPECT_EQ(t.leaf_count(), 4u);
  EXPECT_EQ(t.edge_count(), 5u);
  t.validate();
}

TEST(Newick, ParseRootedRepresentationUnroots) {
  TaxonSet taxa;
  const Tree rooted = parse_newick("((a,b),(c,d));", taxa);
  const Tree unrooted = parse_newick("(a,b,(c,d));", taxa);
  EXPECT_TRUE(same_topology(rooted, unrooted));
}

TEST(Newick, BranchLengthsAndCommentsIgnored) {
  TaxonSet taxa;
  const Tree a =
      parse_newick("((a:0.1,b:0.2):0.05,[comment](c:1e-3,d):2,e);", taxa);
  const Tree b = parse_newick("((a,b),(c,d),e);", taxa);
  EXPECT_TRUE(same_topology(a, b));
}

TEST(Newick, QuotedLabelsRoundTrip) {
  TaxonSet taxa;
  const Tree t = parse_newick("('sp. one','it''s',(plain,'(x)'));", taxa);
  EXPECT_TRUE(taxa.contains("sp. one"));
  EXPECT_TRUE(taxa.contains("it's"));
  EXPECT_TRUE(taxa.contains("(x)"));
  const std::string out = to_newick(t, taxa);
  TaxonSet taxa2 = taxa;
  const Tree back = parse_newick(out, taxa2, {.register_new_taxa = false});
  EXPECT_TRUE(same_topology(t, back));
}

TEST(Newick, SingleLeafAndPair) {
  TaxonSet taxa;
  const Tree one = parse_newick("alpha;", taxa);
  EXPECT_EQ(one.leaf_count(), 1u);
  EXPECT_EQ(to_newick(one, taxa), "alpha;");
  const Tree two = parse_newick("(alpha,beta);", taxa);
  EXPECT_EQ(two.leaf_count(), 2u);
  EXPECT_EQ(two.edge_count(), 1u);
}

TEST(Newick, DuplicateTaxonRejected) {
  TaxonSet taxa;
  EXPECT_THROW(parse_newick("(a,b,(a,c));", taxa), support::InvalidInput);
}

TEST(Newick, PolytomyRejectedByDefault) {
  TaxonSet taxa;
  EXPECT_THROW(parse_newick("(a,b,c,d);", taxa), support::InvalidInput);
}

TEST(Newick, UnknownTaxonRejectedInStrictMode) {
  TaxonSet taxa;
  taxa.add("a");
  taxa.add("b");
  taxa.add("c");
  taxa.add("d");
  EXPECT_NO_THROW(parse_newick("(a,b,(c,d));", taxa, {.register_new_taxa = false}));
  EXPECT_THROW(parse_newick("(a,b,(c,zz));", taxa, {.register_new_taxa = false}),
               support::InvalidInput);
}

class BadNewick : public ::testing::TestWithParam<const char*> {};

TEST_P(BadNewick, RaisesParseError) {
  TaxonSet taxa;
  EXPECT_THROW(parse_newick(GetParam(), taxa), support::Error);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BadNewick,
    ::testing::Values("", "(", "(a", "(a,", "(a,b", "(a,b;", "(a,b))",
                      "(a,b),c;", "(a,,b);", "(a,b,(c,d)); trailing",
                      "(a,b,'unterminated);", "(a,b[unclosed;", "((a),b,c);",
                      "(a,b,(c,d)):;", "(:0.1,b,c);"));

TEST(Newick, CanonicalFormIsRepresentationInvariant) {
  TaxonSet taxa;
  const Tree a = parse_newick("((a,b),(c,d),e);", taxa);
  const Tree b = parse_newick("(e,(d,c),(b,a));", taxa);
  const Tree c = parse_newick("(((a,b),e),c,d);", taxa);
  EXPECT_EQ(canonical_newick(a, taxa), canonical_newick(b, taxa));
  EXPECT_EQ(canonical_newick(a, taxa), canonical_newick(c, taxa));
  const Tree different = parse_newick("((a,c),(b,d),e);", taxa);
  EXPECT_NE(canonical_newick(a, taxa), canonical_newick(different, taxa));
}

TEST(Newick, RandomTreeRoundTrips) {
  support::Rng rng(2024);
  for (int round = 0; round < 25; ++round) {
    TaxonSet taxa;
    std::vector<TaxonId> ids;
    const std::size_t n = 4 + rng.below(40);
    for (std::size_t i = 0; i < n; ++i) {
      std::string name = "t";
      name += std::to_string(i);
      ids.push_back(taxa.add(name));
    }
    const Tree t = datagen::random_tree(ids, rng);
    TaxonSet taxa2 = taxa;
    const Tree back = parse_newick(to_newick(t, taxa), taxa2,
                                   {.register_new_taxa = false});
    EXPECT_TRUE(same_topology(t, back)) << to_newick(t, taxa);
    const Tree back2 = parse_newick(canonical_newick(t, taxa), taxa2,
                                    {.register_new_taxa = false});
    EXPECT_TRUE(same_topology(t, back2));
  }
}

}  // namespace
}  // namespace gentrius::phylo
