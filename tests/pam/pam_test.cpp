#include <gtest/gtest.h>

#include <string>

#include "datagen/tree_gen.hpp"
#include "pam/pam.hpp"
#include "phylo/newick.hpp"
#include "phylo/topology.hpp"
#include "support/rng.hpp"

namespace gentrius::pam {
namespace {

TEST(Pam, SetAndQuery) {
  Pam pam(4, 3);
  EXPECT_EQ(pam.taxon_count(), 4u);
  EXPECT_EQ(pam.locus_count(), 3u);
  EXPECT_FALSE(pam.present(0, 0));
  pam.set_present(0, 0);
  pam.set_present(3, 2);
  EXPECT_TRUE(pam.present(0, 0));
  pam.set_present(0, 0, false);
  EXPECT_FALSE(pam.present(0, 0));
  EXPECT_THROW(pam.set_present(4, 0), support::InvalidInput);
  EXPECT_THROW(pam.set_present(0, 3), support::InvalidInput);
}

TEST(Pam, Stats) {
  Pam pam(4, 2);
  for (phylo::TaxonId t = 0; t < 4; ++t) pam.set_present(t, 0);
  pam.set_present(0, 1);
  EXPECT_DOUBLE_EQ(pam.missing_fraction(), 3.0 / 8.0);
  EXPECT_EQ(pam.taxon_coverage(0), 2u);
  EXPECT_EQ(pam.taxon_coverage(1), 1u);
  ASSERT_TRUE(pam.comprehensive_taxon().has_value());
  EXPECT_EQ(*pam.comprehensive_taxon(), 0u);
  EXPECT_TRUE(pam.covers_all_taxa());
  pam.set_present(2, 0, false);
  EXPECT_FALSE(pam.covers_all_taxa());
  EXPECT_EQ(pam.locus_taxa_list(1), std::vector<phylo::TaxonId>{0});
}

TEST(Pam, TextRoundTrip) {
  phylo::TaxonSet taxa;
  const std::string text = "3 2\nalpha 1 0\nbeta 0 1\ngamma 1 1\n";
  const Pam pam = Pam::parse(text, taxa);
  EXPECT_EQ(pam.taxon_count(), 3u);
  EXPECT_TRUE(pam.present(taxa.id_of("alpha"), 0));
  EXPECT_FALSE(pam.present(taxa.id_of("alpha"), 1));
  EXPECT_EQ(pam.to_text(taxa), text);
  phylo::TaxonSet taxa2;
  const Pam back = Pam::parse(pam.to_text(taxa), taxa2);
  EXPECT_EQ(back.to_text(taxa2), text);
}

TEST(Pam, ParseErrors) {
  phylo::TaxonSet taxa;
  EXPECT_THROW(Pam::parse("", taxa), support::InvalidInput);
  EXPECT_THROW(Pam::parse("2 2\na 1 0\n", taxa), support::InvalidInput);
  EXPECT_THROW(Pam::parse("2 2\na 1 2\nb 0 1\n", taxa),
               support::InvalidInput);
  EXPECT_THROW(Pam::parse("2 1\na 1\na 0\n", taxa), support::InvalidInput);
}

TEST(Pam, InducedSubtreeMatchesRestriction) {
  support::Rng rng(8);
  phylo::TaxonSet taxa;
  std::vector<phylo::TaxonId> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(taxa.add("T" + std::to_string(i)));
  const auto species = datagen::random_tree(ids, rng);

  Pam pam(12, 2);
  for (const phylo::TaxonId t : {0u, 2u, 4u, 6u, 8u}) pam.set_present(t, 0);
  for (const phylo::TaxonId t : {1u, 3u, 5u}) pam.set_present(t, 1);

  const auto induced0 = induced_subtree(species, pam, 0);
  EXPECT_TRUE(phylo::same_topology(
      induced0, phylo::restrict_to(species, {0, 2, 4, 6, 8})));
  EXPECT_TRUE(phylo::displays(species, induced0));

  // Locus 1 has 3 taxa: dropped by the min_taxa=4 filter.
  const auto all = induced_subtrees(species, pam, 4);
  EXPECT_EQ(all.size(), 1u);
  const auto all2 = induced_subtrees(species, pam, 3);
  EXPECT_EQ(all2.size(), 2u);
}

TEST(Pam, InducedSubtreeRejectsTaxonMissingFromSpeciesTree) {
  // Taxa a-e are present in the one locus, but the species tree carries f
  // and g instead of e: restricting it would silently drop e's cell.
  phylo::TaxonSet taxa;
  const Pam pam = Pam::parse("5 1\na 1\nb 1\nc 1\nd 1\ne 1\n", taxa);
  const auto species = phylo::parse_newick("((a,b),(c,f),(d,g));", taxa);
  EXPECT_THROW(induced_subtrees(species, pam), support::InvalidInput);
  try {
    induced_subtree(species, pam, 0);
    FAIL() << "a present taxon missing from the species tree was accepted";
  } catch (const support::InvalidInput& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("taxon " + std::to_string(taxa.id_of("e"))),
              std::string::npos);
    EXPECT_NE(what.find("locus 0"), std::string::npos);
  }
}

}  // namespace
}  // namespace gentrius::pam
