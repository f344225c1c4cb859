// Closed-form counting of the last two levels (docs/ALGORITHM.md §2): a run
// that does not collect trees counts the last taxon from its admissible
// count and a two-taxon frame whose taxa share no constraint target from
// |A_y| + 2·[b ∈ A_y], without inserting either taxon. A collecting run
// still inserts every taxon on every branch, so it is the per-branch
// reference: states, stand trees, dead ends and the stop reason must agree
// on every instance and option variant.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "benchutil/corpus.hpp"
#include "datagen/dataset.hpp"
#include "gentrius/serial.hpp"
#include "gentrius/terrace.hpp"
#include "support/rng.hpp"

namespace gentrius::core {
namespace {

// Sanitizer and expensive-invariant builds run a reduced instance set.
#if defined(GENTRIUS_SANITIZED_BUILD) || GENTRIUS_ENABLE_EXPENSIVE_INVARIANTS
constexpr std::size_t kSimulated = 60;
constexpr std::size_t kEmpirical = 20;
constexpr std::size_t kMultiComponent = 20;
#else
constexpr std::size_t kSimulated = 300;
constexpr std::size_t kEmpirical = 100;
constexpr std::size_t kMultiComponent = 100;
#endif

// Keeps the largest stands short; serial limits are exact, so both runs
// stop at the same totals.
constexpr std::uint64_t kMaxStates = 20'000;

struct Instance {
  std::string name;
  std::vector<phylo::Tree> constraints;
};

std::vector<Instance> instances() {
  std::vector<Instance> out;
  support::Rng rng(20260);
  for (std::size_t k = 0; k < kSimulated; ++k) {
    datagen::SimulatedParams p;
    p.n_taxa = 6 + rng.below(20);
    p.n_loci = 2 + rng.below(8);
    p.missing_fraction = 0.2 + 0.5 * rng.uniform();
    p.seed = 1000 + k;
    out.push_back({"simulated n=" + std::to_string(p.n_taxa) +
                       " loci=" + std::to_string(p.n_loci) +
                       " seed=" + std::to_string(p.seed),
                   datagen::make_simulated(p).constraints});
  }
  for (std::size_t k = 0; k < kEmpirical; ++k) {
    datagen::EmpiricalLikeParams p;
    p.n_taxa = 20 + rng.below(41);
    p.seed = 2000 + k;
    out.push_back({"empirical n=" + std::to_string(p.n_taxa) +
                       " seed=" + std::to_string(p.seed),
                   datagen::make_empirical_like(p).constraints});
  }
  for (std::size_t k = 0; k < kMultiComponent; ++k) {
    benchutil::MultiComponentParams p;
    p.n_components = 1 + rng.below(2);
    p.min_taxa_per_component = 5;
    p.max_taxa_per_component = 9;
    p.seed = 3000 + k;
    out.push_back({"multi-component blocks=" +
                       std::to_string(p.n_components) +
                       " seed=" + std::to_string(p.seed),
                   benchutil::make_multi_component(p).constraints});
  }
  return out;
}

struct Variant {
  const char* name;
  Options options;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  Options min_branches;
  out.push_back({"min-branches", min_branches});
  Options most_constrained;
  most_constrained.dynamic_variant = Options::DynamicVariant::kMostConstrained;
  out.push_back({"most-constrained", most_constrained});
  Options recompute;
  recompute.incremental_mappings = false;
  out.push_back({"recompute-mappings", recompute});
  Options shuffled;
  shuffled.dynamic_taxon_order = false;
  shuffled.shuffle_seed = 77;
  out.push_back({"static-shuffled", shuffled});
  for (Variant& v : out) v.options.stop.max_states = kMaxStates;
  return out;
}

TEST(ClosedFormCount, CountingMatchesThePerBranchReference) {
  std::uint64_t states = 0;
  std::size_t configurations = 0;
  for (const Instance& in : instances()) {
    for (const Variant& v : variants()) {
      const Problem problem = build_problem(in.constraints, v.options);
      Options reference = v.options;
      reference.collect_trees = true;  // inserts every taxon on every branch
      reference.collect_limit = 0;     // keeps none of the trees
      const Result want = run_serial(problem, reference);
      const Result got = run_serial(problem, v.options);
      const std::string what = in.name + " " + v.name;
      ASSERT_EQ(got.intermediate_states, want.intermediate_states) << what;
      ASSERT_EQ(got.stand_trees, want.stand_trees) << what;
      ASSERT_EQ(got.dead_ends, want.dead_ends) << what;
      ASSERT_EQ(got.reason, want.reason) << what;
      states += want.intermediate_states;
      ++configurations;
    }
  }
  // The sweep is not vacuous: most of its configurations run far enough to
  // reach two-taxon frames.
  EXPECT_GT(states, configurations * 100);
}

/// Calls visit(x, branches) at every state with exactly two open taxa of a
/// depth-first enumeration driven through the Terrace API, x being the
/// dynamically chosen taxon, until `budget` such states have been visited.
template <typename Visit>
void visit_two_open(Terrace& t, std::size_t& budget, Visit&& visit) {
  if (budget == 0) return;
  std::vector<EdgeId> branches;
  const auto c = t.choose_dynamic(branches);
  if (c.complete || c.dead_end) return;
  if (t.remaining_count() == 2) {
    --budget;
    visit(c.taxon, branches);
    return;
  }
  for (const EdgeId e : branches) {
    const InsertRecord rec = t.insert(c.taxon, e);
    visit_two_open(t, budget, visit);
    t.remove(rec);
    if (budget == 0) return;
  }
}

TEST(ClosedFormCount, TwoTaxonCountsMatchInsertingTheFirstTaxon) {
  std::size_t closed = 0;
  std::size_t refused = 0;
  for (const bool incremental : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      datagen::SimulatedParams p;
      p.n_taxa = 20;
      p.n_loci = 5;
      p.missing_fraction = 0.5;
      p.seed = seed;
      const Problem problem =
          build_problem(datagen::make_simulated(p).constraints, Options{});
      Terrace t(problem, incremental);
      if (!t.initial_state_consistent()) continue;
      std::size_t budget = 400;
      std::vector<std::uint32_t> counts;
      visit_two_open(t, budget, [&](TaxonId x,
                                    const std::vector<EdgeId>& branches) {
        if (!t.second_taxon_counts(x, branches, counts)) {
          ++refused;
          return;
        }
        ++closed;
        ASSERT_EQ(counts.size(), branches.size());
        std::vector<EdgeId> second;
        for (std::size_t k = 0; k < branches.size(); ++k) {
          const InsertRecord rec = t.insert(x, branches[k]);
          const TaxonId y = t.first_remaining();
          EXPECT_EQ(t.count_branches(y), counts[k])
              << "seed " << seed << " taxon " << x << " branch "
              << branches[k];
          const auto c = t.choose_dynamic(second);
          EXPECT_EQ(c.dead_end ? 0 : second.size(), counts[k]);
          t.remove(rec);
        }
      });
    }
  }
  // Both outcomes occur: frames in closed form and frames that must insert.
  EXPECT_GT(closed, 1000u) << refused;
  EXPECT_GT(refused, 100u) << closed;
}

}  // namespace
}  // namespace gentrius::core
