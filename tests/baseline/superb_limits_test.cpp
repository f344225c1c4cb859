// SUPERB resource-limit behaviour and saturation arithmetic.
#include <gtest/gtest.h>

#include "baseline/superb.hpp"
#include "datagen/dataset.hpp"
#include "pam/pam.hpp"
#include "phylo/newick.hpp"

namespace gentrius::baseline {
namespace {

std::vector<phylo::Tree> comprehensive_instance(std::uint64_t seed,
                                                std::size_t n_taxa) {
  datagen::SimulatedParams p;
  p.n_taxa = n_taxa;
  p.n_loci = 4;
  p.missing_fraction = 0.45;
  p.seed = seed;
  auto ds = datagen::make_simulated(p);
  for (std::size_t l = 0; l < ds.pam.locus_count(); ++l)
    ds.pam.set_present(0, l, true);
  return pam::induced_subtrees(ds.species_tree, ds.pam);
}

TEST(SuperbLimits, BudgetExceededIsReported) {
  const auto cs = comprehensive_instance(8080, 30);
  SuperbOptions tiny;
  tiny.max_recursion_nodes = 2;
  const auto r = count_stand_superb(cs, 0, tiny);
  EXPECT_TRUE(r.budget_exceeded);
  EXPECT_LE(r.recursion_nodes, 3u);
}

TEST(SuperbLimits, ComponentCapIsReported) {
  // Many free taxa => many singleton components at the root level.
  phylo::TaxonSet taxa;
  std::vector<phylo::Tree> cs;
  cs.push_back(phylo::parse_newick("((c,a),(b,d));", taxa));
  for (int i = 0; i < 40; ++i) {
    std::string w = "w";
    w += std::to_string(i);
    cs.push_back(phylo::parse_newick("(" + w + ",c,a);", taxa));
  }
  SuperbOptions opts;
  opts.max_components = 10;
  const auto r = count_stand_superb(cs, taxa.id_of("c"), opts);
  EXPECT_TRUE(r.budget_exceeded);
}

TEST(SuperbLimits, DeterministicAcrossRuns) {
  const auto cs = comprehensive_instance(8181, 16);
  const auto a = count_stand_superb(cs, 0);
  const auto b = count_stand_superb(cs, 0);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.recursion_nodes, b.recursion_nodes);
}

}  // namespace
}  // namespace gentrius::baseline
