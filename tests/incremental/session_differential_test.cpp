// Differential harness for the incremental session.
//
// The contract under test: after ANY edit sequence, IncrementalSession's
// Result has the identical stand count and identical stand tree set as a
// from-scratch decompose run of the edited matrix — cache hits, evictions,
// split/merge rewiring, and rank-space translation included. Sweeps
// hundreds of random block-structured instances with random edit streams
// (fills, clears, new loci, new taxa) and checks every prefix.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "benchutil/corpus.hpp"
#include "datagen/dataset.hpp"
#include "datagen/tree_gen.hpp"
#include "decompose/components.hpp"
#include "decompose/sharded.hpp"
#include "decompose/testutil.hpp"
#include "incremental/session.hpp"
#include "pam/pam.hpp"
#include "phylo/newick.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace gentrius {
namespace {

using core::Options;
using core::Result;
using core::StopReason;
using decompose_test::kProductLawSeeds;
using decompose_test::sorted_trees;
using incremental::EditScript;
using incremental::IncrementalSession;
using incremental::PamDelta;
using incremental::SessionOptions;

Options engine_options(const phylo::TaxonSet& taxa) {
  Options o;
  o.collect_trees = true;
  o.tree_names = &taxa;
  return o;
}

Result from_scratch(const phylo::Tree& species, const pam::Pam& pam,
                    const Options& options, std::size_t min_taxa = 4) {
  const auto decomp = decompose::analyze_pam(species, pam, min_taxa);
  return decompose::run_sharded(decomp.constraints, options);
}

/// A random applicable edit that keeps every locus enumerable (clears only
/// touch loci with >= 5 present taxa, so no locus drops below the
/// min_taxa = 4 floor and the instance always has work).
std::optional<PamDelta> random_edit(const pam::Pam& pam, support::Rng& rng) {
  if (rng.bernoulli(0.2)) {
    std::vector<phylo::TaxonId> members;
    for (phylo::TaxonId t = 0; t < pam.taxon_count(); ++t) members.push_back(t);
    rng.shuffle(members);
    members.resize(4);
    return PamDelta::add_locus(members);
  }
  std::vector<PamDelta> cands;
  for (std::size_t l = 0; l < pam.locus_count(); ++l) {
    const std::size_t count = pam.locus_taxa_list(l).size();
    for (phylo::TaxonId t = 0; t < pam.taxon_count(); ++t) {
      if (!pam.present(t, l))
        cands.push_back(PamDelta::fill_cell(t, l));
      else if (count >= 5)
        cands.push_back(PamDelta::clear_cell(t, l));
    }
  }
  if (cands.empty()) return std::nullopt;
  return cands[rng.below(cands.size())];
}

benchutil::MultiComponentParams params_for_seed(std::uint64_t seed,
                                                std::size_t n_components) {
  benchutil::MultiComponentParams p;
  p.n_components = n_components;
  p.min_taxa_per_component = 4;
  p.max_taxa_per_component = 4;  // keeps every from-scratch reference cheap
  p.loci_per_component = 2;
  p.seed = seed;
  return p;
}

void expect_same(Result inc, Result ref, const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(ref.reason, StopReason::kCompleted);
  EXPECT_EQ(inc.reason, StopReason::kCompleted);
  EXPECT_EQ(inc.stand_trees, ref.stand_trees);
  EXPECT_EQ(inc.count_saturated, ref.count_saturated);
  EXPECT_EQ(inc.count_exact, ref.count_exact);
  EXPECT_EQ(sorted_trees(inc), sorted_trees(ref));
}

/// The session's result equals `ref`, run_sharded over the same matrix's
/// pam::induced_subtrees with a cache of the session's capacity that saw
/// the same runs: counts, stands, per-shard counts and reuse, and every
/// cache counter.
void expect_same_traffic(Result inc, Result ref, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(inc.stand_trees, ref.stand_trees);
  EXPECT_EQ(sorted_trees(inc), sorted_trees(ref));
  ASSERT_EQ(inc.shards.size(), ref.shards.size());
  for (std::size_t j = 0; j < ref.shards.size(); ++j) {
    EXPECT_EQ(inc.shards[j].stand_trees, ref.shards[j].stand_trees)
        << "shard " << j;
    EXPECT_EQ(inc.shards[j].reused, ref.shards[j].reused) << "shard " << j;
  }
  EXPECT_EQ(inc.cache.hits, ref.cache.hits);
  EXPECT_EQ(inc.cache.misses, ref.cache.misses);
  EXPECT_EQ(inc.cache.evictions, ref.cache.evictions);
  EXPECT_EQ(inc.cache.reused_components, ref.cache.reused_components);
  EXPECT_EQ(inc.cache.recomputed_components, ref.cache.recomputed_components);
  EXPECT_EQ(inc.cache.reused_states, ref.cache.reused_states);
  EXPECT_EQ(inc.cache.recomputed_states, ref.cache.recomputed_states);
}

// The per-locus subtree slots under the edits that stress them: a locus
// cleared below the floor and refilled, a new locus, a new taxon (which
// widens every row), and scripts that fail and roll back, one of them
// after its rows were rebuilt (with min_taxa 2, 2-taxon loci induce
// constraints yet leave nothing enumerable). At every step the session
// equals a cached reference run with the same capacity.
TEST(SessionDifferential, LocusSlotsMatchACachedReferenceRun) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{256}})
    for (const std::size_t min_taxa : {std::size_t{2}, std::size_t{4}})
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto ds =
            benchutil::make_multi_component(params_for_seed(seed, 2));
        SCOPED_TRACE(ds.name + " capacity=" + std::to_string(capacity) +
                     " min_taxa=" + std::to_string(min_taxa));
        const std::size_t n = ds.taxon_count();
        const std::size_t max_taxa = ds.species_tree.leaf_count();
        // One taxon short, so an add_taxon can bring the last one back.
        pam::Pam shadow(n - 1, ds.pam.locus_count());
        for (std::size_t l = 0; l < ds.pam.locus_count(); ++l)
          for (phylo::TaxonId t = 0; t + 1 < n; ++t)
            if (ds.pam.present(t, l)) shadow.set_present(t, l);

        const Options opts = engine_options(ds.taxa);
        SessionOptions so;
        so.engine = opts;
        so.cache_capacity = capacity;
        so.min_taxa = min_taxa;
        IncrementalSession session(ds.species_tree, shadow, so);
        decompose::ResultCache reference_cache(capacity);
        const auto reference = [&](const pam::Pam& pam) {
          return decompose::run_sharded(
              pam::induced_subtrees(ds.species_tree, pam, min_taxa), opts,
              so.run, &reference_cache);
        };
        int step = 0;
        const auto check = [&](Result inc, const std::string& what) {
          expect_same_traffic(std::move(inc), reference(shadow),
                              "step " + std::to_string(step++) + ": " + what);
        };
        const auto apply_script = [&](const EditScript& script) {
          Result inc = session.apply(script);
          std::string what;
          for (const PamDelta& edit : script) {
            incremental::apply_edit(shadow, edit, max_taxa);
            what += incremental::to_string(edit) + "; ";
          }
          check(std::move(inc), what);
        };
        const auto apply = [&](const PamDelta& edit) { apply_script({edit}); };
        check(session.enumerate(), "initial");

        // Below the floor one cell at a time, then back.
        std::size_t locus = 0;
        while (shadow.locus_taxa(locus).count() < min_taxa) ++locus;
        std::vector<phylo::TaxonId> cleared;
        while (shadow.locus_taxa(locus).count() >= min_taxa) {
          cleared.push_back(shadow.locus_taxa_list(locus).back());
          apply(PamDelta::clear_cell(cleared.back(), locus));
        }
        for (auto t = cleared.rbegin(); t != cleared.rend(); ++t)
          apply(PamDelta::fill_cell(*t, locus));
        // One script swaps a present taxon for an absent one: the row keeps
        // its count but not its taxa.
        phylo::TaxonId absent = 0;
        while (shadow.present(absent, locus)) ++absent;
        apply_script({PamDelta::clear_cell(cleared.front(), locus),
                      PamDelta::fill_cell(absent, locus)});

        apply(PamDelta::add_locus({0, 1, static_cast<phylo::TaxonId>(n - 3),
                                   static_cast<phylo::TaxonId>(n - 2)}));
        std::vector<std::size_t> loci{0};
        for (std::size_t l = 1; l < ds.pam.locus_count(); ++l)
          if (ds.pam.present(static_cast<phylo::TaxonId>(n - 1), l))
            loci.push_back(l);
        apply(PamDelta::add_taxon(loci));
        ASSERT_EQ(session.pam().taxon_count(), n);

        // Fails mid-script: the second fill meets a filled cell.
        PamDelta fill = PamDelta::fill_cell(0, 0);
        while (shadow.present(fill.taxon, fill.locus)) ++fill.taxon;
        const std::string before = session.pam().to_text(ds.taxa);
        EXPECT_THROW(session.apply(EditScript{fill, fill}),
                     support::InvalidInput);
        EXPECT_EQ(session.pam().to_text(ds.taxa), before);
        check(session.enumerate(), "after a failed script");

        // Applies, but leaves at most two taxa per locus: nothing is
        // enumerable, so the re-enumeration throws and the matrix rolls
        // back (at min_taxa 2, after its 2-taxon slots were rebuilt).
        EditScript starve;
        pam::Pam starved = shadow;
        for (std::size_t l = 0; l < shadow.locus_count(); ++l) {
          const auto present = shadow.locus_taxa_list(l);
          for (std::size_t i = 2; i < present.size(); ++i) {
            starve.push_back(PamDelta::clear_cell(present[i], l));
            incremental::apply_edit(starved, starve.back(), max_taxa);
          }
        }
        EXPECT_THROW(session.apply(starve), support::InvalidInput);
        EXPECT_THROW(reference(starved), support::InvalidInput);
        EXPECT_EQ(session.pam().to_text(ds.taxa), before);
        check(session.enumerate(), "after a rolled-back enumeration");

        support::Rng rng(seed * 131 + min_taxa);
        for (int i = 0; i < 4; ++i)
          if (const auto edit = random_edit(shadow, rng)) apply(*edit);
        if (HasFailure()) return;
      }
}

TEST(SessionDifferential, RandomEditStreamsMatchFromScratch) {
  std::uint64_t total_hits = 0;
  for (std::uint64_t seed = 1; seed <= kProductLawSeeds; ++seed) {
    const auto ds =
        benchutil::make_multi_component(params_for_seed(seed, 2));
    SCOPED_TRACE(ds.name);
    const Options opts = engine_options(ds.taxa);

    SessionOptions so;
    so.engine = opts;
    IncrementalSession session(ds.species_tree, ds.pam, so);
    pam::Pam shadow = ds.pam;

    expect_same(session.enumerate(),
                from_scratch(ds.species_tree, shadow, opts), "initial");

    support::Rng rng(seed ^ 0x5e5510u);
    for (int step = 0; step < 4; ++step) {
      const auto edit = random_edit(shadow, rng);
      if (!edit) break;
      Result inc = session.apply(*edit);
      incremental::apply_edit(shadow, *edit);
      expect_same(std::move(inc),
                  from_scratch(ds.species_tree, shadow, opts),
                  "step " + std::to_string(step) + ": " +
                      incremental::to_string(*edit));
    }
    total_hits += session.lifetime_cache_stats().hits;
  }
  // Localized edits must actually reuse work: across the sweep the
  // untouched components (and often the residual) hit the cache.
  EXPECT_GT(total_hits, kProductLawSeeds);
}

TEST(SessionDifferential, ForcedEvictionStaysExact) {
  // capacity 1: every second component lookup misses, entries churn
  // constantly — correctness must not depend on hitting.
  for (std::uint64_t seed = 1; seed <= kProductLawSeeds / 4; ++seed) {
    const auto ds =
        benchutil::make_multi_component(params_for_seed(seed, 2));
    SCOPED_TRACE(ds.name);
    const Options opts = engine_options(ds.taxa);

    SessionOptions so;
    so.engine = opts;
    so.cache_capacity = 1;
    IncrementalSession session(ds.species_tree, ds.pam, so);
    pam::Pam shadow = ds.pam;

    support::Rng rng(seed * 977 + 3);
    for (int step = 0; step < 3; ++step) {
      const auto edit = random_edit(shadow, rng);
      if (!edit) break;
      Result inc = session.apply(*edit);
      incremental::apply_edit(shadow, *edit);
      expect_same(std::move(inc),
                  from_scratch(ds.species_tree, shadow, opts),
                  "step " + std::to_string(step));
    }
    EXPECT_GT(session.lifetime_cache_stats().evictions, 0u);
  }
}

TEST(SessionDifferential, RevertedEditIsServedEntirelyFromCache) {
  const auto ds = benchutil::make_multi_component(params_for_seed(13, 2));
  const Options opts = engine_options(ds.taxa);
  SessionOptions so;
  so.engine = opts;
  IncrementalSession session(ds.species_tree, ds.pam, so);

  Result first = session.enumerate();

  // Find a fillable cell, fill it, then clear it back.
  PamDelta fill = PamDelta::fill_cell(0, 0);
  bool found = false;
  for (std::size_t l = 0; l < ds.pam.locus_count() && !found; ++l)
    for (phylo::TaxonId t = 0; t < ds.pam.taxon_count() && !found; ++t)
      if (!ds.pam.present(t, l)) {
        fill = PamDelta::fill_cell(t, l);
        found = true;
      }
  ASSERT_TRUE(found);
  session.apply(fill);
  Result reverted =
      session.apply(PamDelta::clear_cell(fill.taxon, fill.locus));

  // The reverted matrix is the original instance: every component and the
  // residual are still cached, so nothing recomputes, and the stand set is
  // identical — served through the rank-space round trip.
  EXPECT_EQ(reverted.cache.misses, 0u);
  EXPECT_EQ(reverted.cache.recomputed_components, 0u);
  EXPECT_GT(reverted.cache.hits, 0u);
  EXPECT_EQ(reverted.stand_trees, first.stand_trees);
  EXPECT_EQ(sorted_trees(reverted), sorted_trees(first));
  for (const auto& shard : reverted.shards) EXPECT_TRUE(shard.reused);
}

TEST(SessionDifferential, SplitAndMergeEditsStayExact) {
  // Hand-crafted bridge instance: locus 0 over {0..4}, locus 1 over
  // {4..8}, one component via bridge taxon 4. Clearing (4,1) splits it;
  // re-filling merges it back.
  phylo::TaxonSet taxa;
  support::Rng rng(29);
  const auto species =
      datagen::random_tree(datagen::default_taxa(taxa, 9), rng);
  pam::Pam pam(9, 2);
  for (phylo::TaxonId t = 0; t < 5; ++t) pam.set_present(t, 0);
  for (phylo::TaxonId t = 4; t < 9; ++t) pam.set_present(t, 1);

  const Options opts = engine_options(taxa);
  SessionOptions so;
  so.engine = opts;
  IncrementalSession session(species, pam, so);
  pam::Pam shadow = pam;

  expect_same(session.enumerate(), from_scratch(species, shadow, opts),
              "bridged");

  Result split = session.apply(PamDelta::clear_cell(4, 1));
  incremental::apply_edit(shadow, PamDelta::clear_cell(4, 1));
  EXPECT_EQ(decompose::analyze_pam(species, shadow).split.components.size(),
            2u);
  expect_same(std::move(split), from_scratch(species, shadow, opts),
              "after split");

  Result merged = session.apply(PamDelta::fill_cell(4, 1));
  incremental::apply_edit(shadow, PamDelta::fill_cell(4, 1));
  EXPECT_EQ(decompose::analyze_pam(species, shadow).split.components.size(),
            1u);
  expect_same(std::move(merged), from_scratch(species, shadow, opts),
              "after merge");
}

TEST(SessionDifferential, AddTaxonActivatesASpeciesTreeLeaf) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto ds =
        benchutil::make_multi_component(params_for_seed(seed * 7 + 1, 2));
    const std::size_t n = ds.taxon_count();
    // Start the session one taxon short; the species tree already spans it.
    pam::Pam initial(n - 1, ds.pam.locus_count());
    for (std::size_t l = 0; l < ds.pam.locus_count(); ++l)
      for (phylo::TaxonId t = 0; t + 1 < n; ++t)
        if (ds.pam.present(t, l)) initial.set_present(t, l);
    const auto split = decompose::analyze_pam(ds.species_tree, initial).split;
    if (split.enumerable_count == 0) continue;  // degenerate after dropping
    SCOPED_TRACE(ds.name);

    const Options opts = engine_options(ds.taxa);
    SessionOptions so;
    so.engine = opts;
    IncrementalSession session(ds.species_tree, initial, so);
    expect_same(session.enumerate(),
                from_scratch(ds.species_tree, initial, opts), "short");

    std::vector<std::size_t> loci;
    for (std::size_t l = 0; l < ds.pam.locus_count(); ++l)
      if (ds.pam.present(static_cast<phylo::TaxonId>(n - 1), l))
        loci.push_back(l);
    Result grown = session.apply(PamDelta::add_taxon(loci));
    EXPECT_EQ(session.pam().taxon_count(), n);
    // The grown matrix is exactly ds.pam.
    expect_same(std::move(grown),
                from_scratch(ds.species_tree, ds.pam, opts), "grown");
  }
}

TEST(SessionDifferential, VirtualBackendMatchesSerialReference) {
  for (std::uint64_t seed = 2; seed <= 6; ++seed) {
    const auto ds =
        benchutil::make_multi_component(params_for_seed(seed, 2));
    SCOPED_TRACE(ds.name);
    const Options opts = engine_options(ds.taxa);
    SessionOptions so;
    so.engine = opts;
    so.run.backend = decompose::ShardBackend::kVirtual;
    so.run.n_threads = 4;
    IncrementalSession session(ds.species_tree, ds.pam, so);
    pam::Pam shadow = ds.pam;

    support::Rng rng(seed);
    for (int step = 0; step < 2; ++step) {
      const auto edit = random_edit(shadow, rng);
      if (!edit) break;
      Result inc = session.apply(*edit);
      incremental::apply_edit(shadow, *edit);
      expect_same(std::move(inc),
                  from_scratch(ds.species_tree, shadow, opts),
                  "step " + std::to_string(step));
    }
  }
}

TEST(SessionDifferential, FailingScriptLeavesSessionUnchanged) {
  // apply(EditScript) is atomic: a script that fails mid-way (the second
  // fill hits the cell the first just filled) must rethrow with the
  // session matrix byte-identical to before the call.
  const auto ds = benchutil::make_multi_component(params_for_seed(3, 2));
  const Options opts = engine_options(ds.taxa);
  SessionOptions so;
  so.engine = opts;
  IncrementalSession session(ds.species_tree, ds.pam, so);

  PamDelta fill = PamDelta::fill_cell(0, 0);
  bool found = false;
  for (std::size_t l = 0; l < ds.pam.locus_count() && !found; ++l)
    for (phylo::TaxonId t = 0; t < ds.pam.taxon_count() && !found; ++t)
      if (!ds.pam.present(t, l)) {
        fill = PamDelta::fill_cell(t, l);
        found = true;
      }
  ASSERT_TRUE(found);

  const std::string before_text = session.pam().to_text(ds.taxa);
  EXPECT_THROW(session.apply(EditScript{fill, fill}), support::InvalidInput);
  EXPECT_EQ(session.pam().to_text(ds.taxa), before_text);
  expect_same(session.enumerate(),
              from_scratch(ds.species_tree, ds.pam, opts), "after rollback");

  // Every edit of this script applies, but the edited matrix leaves every
  // locus below the min_taxa floor, so nothing is enumerable: the
  // re-enumeration throws and the matrix rolls back too.
  EditScript starve;
  for (std::size_t l = 0; l < ds.pam.locus_count(); ++l) {
    std::size_t kept = 0;
    for (phylo::TaxonId t = 0; t < ds.pam.taxon_count(); ++t) {
      if (!ds.pam.present(t, l)) continue;
      if (kept < so.min_taxa - 1)
        ++kept;
      else
        starve.push_back(PamDelta::clear_cell(t, l));
    }
  }
  EXPECT_THROW(session.apply(starve), support::InvalidInput);
  EXPECT_EQ(session.pam().to_text(ds.taxa), before_text);
  expect_same(session.enumerate(),
              from_scratch(ds.species_tree, ds.pam, opts),
              "after enumeration rollback");
}

TEST(SessionDifferential, EvictionDuringPendingHitStaysExact) {
  // Regression: the plan phase records cache hits before the run phase
  // inserts recomputed misses, and an insert at capacity evicts. With the
  // closed-form residual (never inserted), warm-up leaves only component 1
  // cached (capacity 1 evicted component 0). The add_locus dirties
  // component 0 only, so the edit run hits component 1 at plan time, then
  // recomputing component 0 evicts that still-pending entry before it is
  // served — served data must not dangle.
  phylo::TaxonSet taxa;
  support::Rng rng(41);
  const auto species =
      datagen::random_tree(datagen::default_taxa(taxa, 8), rng);
  pam::Pam pam(8, 2);
  for (phylo::TaxonId t = 0; t < 4; ++t) pam.set_present(t, 0);
  for (phylo::TaxonId t = 4; t < 8; ++t) pam.set_present(t, 1);

  const Options opts = engine_options(taxa);
  SessionOptions so;
  so.engine = opts;
  so.cache_capacity = 1;
  so.run.residual_closed_form = true;
  IncrementalSession session(species, pam, so);
  session.enumerate();

  const PamDelta edit = PamDelta::add_locus({0, 1, 2, 3});
  Result inc = session.apply(edit);
  pam::Pam shadow = pam;
  incremental::apply_edit(shadow, edit);
  EXPECT_EQ(inc.cache.hits, 1u);
  EXPECT_EQ(inc.cache.misses, 1u);
  EXPECT_EQ(inc.cache.evictions, 1u);
  expect_same(std::move(inc), from_scratch(species, shadow, opts),
              "after eviction of pending hit");
}

TEST(SessionDifferential, ResidualKeyTracksPassThroughStructure) {
  // Two session states with identical universe size and enumerable
  // component sizes but different pass-through constraints must not share
  // a residual cache entry: the pass-through constraints belong to the
  // residual instance, so they belong to its key.
  phylo::TaxonSet taxa;
  support::Rng rng(53);
  const auto species =
      datagen::random_tree(datagen::default_taxa(taxa, 10), rng);
  pam::Pam pam(10, 4);
  for (phylo::TaxonId t = 0; t < 4; ++t) pam.set_present(t, 0);
  for (phylo::TaxonId t = 4; t < 8; ++t) pam.set_present(t, 1);
  pam.set_present(8, 2);
  pam.set_present(9, 2);
  pam.set_present(8, 3);
  pam.set_present(9, 3);

  const Options opts = engine_options(taxa);
  SessionOptions so;
  so.engine = opts;
  so.min_taxa = 2;  // 2-taxon loci induce (vacuous) pass-through constraints
  IncrementalSession session(species, pam, so);
  expect_same(session.enumerate(), from_scratch(species, pam, opts, 2),
              "two pass-through constraints");

  // Dropping taxon 9 from locus 3 erases that constraint (below the
  // min_taxa floor) but keeps the universe and the enumerable sizes: only
  // the pass-through structure changes, so the residual must miss and
  // recompute rather than serve the previous instance's entry.
  const PamDelta edit = PamDelta::clear_cell(9, 3);
  Result inc = session.apply(edit);
  pam::Pam shadow = pam;
  incremental::apply_edit(shadow, edit);
  EXPECT_EQ(inc.cache.misses, 1u);
  EXPECT_EQ(inc.cache.recomputed_components, 0u);
  expect_same(std::move(inc), from_scratch(species, shadow, opts, 2),
              "one pass-through constraint");
}

TEST(SessionDifferential, SixTaxonResidualFollowsRepresentativeShapes) {
  // With two components of >= 6 taxa, the residual count depends on the
  // shapes of the component representatives, not only on the component
  // sizes (DESIGN.md "Decomposition"). Each edit keeps the universe and
  // both component sizes but reshapes a representative, so a residual
  // cached for the old shapes must not be served: the session must still
  // equal run_sharded, shard by shard, and flag its count as inexact.
  struct Case {
    std::uint64_t seed;
    PamDelta edit;
  };
  const Case cases[] = {{5, PamDelta::fill_cell(0, 0)},
                        {4, PamDelta::clear_cell(8, 5)}};
  for (const Case& c : cases) {
    benchutil::MultiComponentParams p;
    p.n_components = 2;
    p.min_taxa_per_component = 6;
    p.max_taxa_per_component = 6;
    p.loci_per_component = 3;
    p.min_taxa_per_locus = 3;
    p.missing_fraction = 0.4;
    p.seed = c.seed;
    const auto ds = benchutil::make_multi_component(p);
    SCOPED_TRACE(ds.name + ": " + incremental::to_string(c.edit));

    const Options opts{};
    SessionOptions so;
    so.engine = opts;
    so.min_taxa = 3;
    IncrementalSession session(ds.species_tree, ds.pam, so);
    session.enumerate();
    const Result inc = session.apply(c.edit);

    pam::Pam shadow = ds.pam;
    incremental::apply_edit(shadow, c.edit);
    const Result ref = from_scratch(ds.species_tree, shadow, opts, 3);
    ASSERT_EQ(ref.reason, StopReason::kCompleted);
    EXPECT_EQ(inc.reason, StopReason::kCompleted);
    EXPECT_EQ(inc.stand_trees, ref.stand_trees);
    EXPECT_FALSE(ref.count_exact);
    EXPECT_FALSE(inc.count_exact);
    ASSERT_EQ(inc.shards.size(), ref.shards.size());
    for (std::size_t j = 0; j < ref.shards.size(); ++j)
      EXPECT_EQ(inc.shards[j].stand_trees, ref.shards[j].stand_trees)
          << "shard " << j;
  }
}

TEST(SessionDifferential, IsomorphicHitKeepsItsOwnRepresentative) {
  // Each case fills one cell, clears it again, then fills another: the two
  // fills give the edited block isomorphic instances under different
  // labelings, so the last edit's component hits the entry the first fill
  // stored. A representative is a function of the labelled instance (the
  // probe breaks ties by taxon id), so the hit must not bring the first
  // instance's representative along: from 6 taxa on the residual count
  // depends on its shape (a cached representative gave 10,405,325 trees
  // where run_sharded counts 10,315,725 on seed 2).
  struct Case {
    std::uint64_t seed;
    PamDelta first;
    PamDelta last;
  };
  const Case cases[] = {
      {2, PamDelta::fill_cell(10, 3), PamDelta::fill_cell(10, 4)},
      {5, PamDelta::fill_cell(7, 4), PamDelta::fill_cell(9, 4)},
      {26, PamDelta::fill_cell(8, 3), PamDelta::fill_cell(11, 3)}};
  for (const Case& c : cases) {
    benchutil::MultiComponentParams p;
    p.n_components = 2;
    p.min_taxa_per_component = 6;
    p.max_taxa_per_component = 6;
    p.loci_per_component = 3;
    p.min_taxa_per_locus = 3;
    p.missing_fraction = 0.4;
    p.seed = c.seed;
    const auto ds = benchutil::make_multi_component(p);
    SCOPED_TRACE(ds.name + ": " + incremental::to_string(c.last));

    const Options opts{};
    SessionOptions so;
    so.engine = opts;
    so.min_taxa = 3;
    IncrementalSession session(ds.species_tree, ds.pam, so);
    session.enumerate();
    session.apply(c.first);
    session.apply(PamDelta::clear_cell(c.first.taxon, c.first.locus));
    const Result inc = session.apply(c.last);
    EXPECT_EQ(inc.cache.recomputed_components, 0u);

    pam::Pam shadow = ds.pam;
    incremental::apply_edit(shadow, c.last);
    const Result ref = from_scratch(ds.species_tree, shadow, opts, 3);
    ASSERT_EQ(ref.reason, StopReason::kCompleted);
    EXPECT_EQ(inc.stand_trees, ref.stand_trees);
    ASSERT_EQ(inc.shards.size(), ref.shards.size());
    for (std::size_t j = 0; j < ref.shards.size(); ++j)
      EXPECT_EQ(inc.shards[j].stand_trees, ref.shards[j].stand_trees)
          << "shard " << j;
  }
}

TEST(SessionDifferential, ComponentAndResidualShareOneKey) {
  // Locus 0 over {0..4} displays locus 1 over {0..3}, so the one
  // component's stand is locus 0's tree and the residual instance is that
  // tree alone. Clearing (3, 1) drops locus 1 below the floor: the component
  // becomes the residual's instance. A count is a property of the instance,
  // so a counting session serves the component from the residual's entry;
  // that entry holds no stand, so a collecting session recomputes the
  // component. Either way each served shard keeps its own kind.
  using Kind = core::ShardStats::Kind;
  phylo::TaxonSet taxa;
  support::Rng rng(71);
  const auto species =
      datagen::random_tree(datagen::default_taxa(taxa, 5), rng);
  pam::Pam pam(5, 2);
  for (phylo::TaxonId t = 0; t < 5; ++t) pam.set_present(t, 0);
  for (phylo::TaxonId t = 0; t < 4; ++t) pam.set_present(t, 1);

  for (const bool collect : {false, true}) {
    SCOPED_TRACE(collect ? "collecting" : "counting");
    Options opts = engine_options(taxa);
    opts.collect_trees = collect;
    SessionOptions so;
    so.engine = opts;
    IncrementalSession session(species, pam, so);
    const Result first = session.enumerate();
    EXPECT_EQ(first.cache.misses, 2u);

    const PamDelta edit = PamDelta::clear_cell(3, 1);
    Result inc = session.apply(edit);
    pam::Pam shadow = pam;
    incremental::apply_edit(shadow, edit);
    Result ref = from_scratch(species, shadow, opts);
    EXPECT_EQ(inc.cache.recomputed_components, collect ? 1u : 0u);
    ASSERT_EQ(inc.shards.size(), 2u);
    ASSERT_EQ(ref.shards.size(), 2u);
    EXPECT_EQ(inc.shards[0].kind, Kind::kComponent);
    EXPECT_EQ(inc.shards[0].reused, !collect);
    EXPECT_EQ(inc.shards[1].kind, Kind::kResidual);
    EXPECT_TRUE(inc.shards[1].reused);
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_EQ(inc.shards[j].stand_trees, ref.shards[j].stand_trees);
    expect_same(std::move(inc), std::move(ref), "after the edit");
  }
}

TEST(SessionDifferential, ScriptWithTwoAddTaxaStaysExact) {
  // One script adds two taxa: taxon 8 joins component 0 and taxon 9 joins
  // component 1, so both components change before the single
  // re-enumeration.
  phylo::TaxonSet taxa;
  support::Rng rng(67);
  const auto species =
      datagen::random_tree(datagen::default_taxa(taxa, 10), rng);
  pam::Pam pam(8, 2);
  for (phylo::TaxonId t = 0; t < 4; ++t) pam.set_present(t, 0);
  for (phylo::TaxonId t = 4; t < 8; ++t) pam.set_present(t, 1);

  const Options opts = engine_options(taxa);
  SessionOptions so;
  so.engine = opts;
  IncrementalSession session(species, pam, so);
  session.enumerate();

  const EditScript script{PamDelta::add_taxon({0}), PamDelta::add_taxon({1})};
  Result inc = session.apply(script);
  pam::Pam shadow = pam;
  for (const PamDelta& edit : script) incremental::apply_edit(shadow, edit);
  EXPECT_EQ(inc.cache.recomputed_components, 2u);
  expect_same(std::move(inc), from_scratch(species, shadow, opts),
              "after two add_taxon edits");
}

TEST(SessionDifferential, CountExactFollowsComponentSizes) {
  // The session's Result is run_sharded's, count_exact included. Growing a
  // 5-taxon block to 6 taxa next to a 6-taxon block leaves the product law
  // without its guarantee, and clearing the new cell restores it; each step
  // equals a from-scratch run, flag and all.
  phylo::TaxonSet taxa;
  support::Rng rng(71);
  const auto species =
      datagen::random_tree(datagen::default_taxa(taxa, 12), rng);
  pam::Pam pam(11, 2);
  for (phylo::TaxonId t = 0; t < 5; ++t) pam.set_present(t, 0);
  for (phylo::TaxonId t = 5; t < 11; ++t) pam.set_present(t, 1);

  const Options opts = engine_options(taxa);
  SessionOptions so;
  so.engine = opts;
  IncrementalSession session(species, pam, so);
  Result first = session.enumerate();
  EXPECT_TRUE(first.count_exact);
  expect_same(std::move(first), from_scratch(species, pam, opts), "5 + 6");

  Result grown = session.apply(PamDelta::add_taxon({0}));
  EXPECT_FALSE(grown.count_exact);
  expect_same(std::move(grown), from_scratch(species, session.pam(), opts),
              "6 + 6");

  Result cleared = session.apply(PamDelta::clear_cell(11, 0));
  EXPECT_TRUE(cleared.count_exact);
  EXPECT_EQ(cleared.cache.recomputed_components, 0u);
  expect_same(std::move(cleared), from_scratch(species, session.pam(), opts),
              "5 + 6 again");
}

TEST(SessionDifferential, RejectsUnusableConfigurations) {
  const auto ds = benchutil::make_multi_component(params_for_seed(1, 2));
  SessionOptions so;
  so.engine = engine_options(ds.taxa);

  {
    // Species tree smaller than the matrix's taxon universe.
    phylo::TaxonSet small;
    support::Rng rng(5);
    const auto tiny =
        datagen::random_tree(datagen::default_taxa(small, 4), rng);
    EXPECT_THROW(IncrementalSession(tiny, ds.pam, so),
                 support::InvalidInput);
  }
  {
    // Nothing enumerable: a matrix whose only locus is below the floor.
    phylo::TaxonSet taxa;
    support::Rng rng(6);
    const auto species =
        datagen::random_tree(datagen::default_taxa(taxa, 6), rng);
    pam::Pam sparse(6, 1);
    sparse.set_present(0, 0);
    sparse.set_present(1, 0);
    sparse.set_present(2, 0);
    SessionOptions s2 = so;
    s2.engine.tree_names = &taxa;
    IncrementalSession session(species, sparse, s2);
    EXPECT_THROW(session.enumerate(), support::InvalidInput);
  }
}

TEST(SessionOptionRules, CollectingNeedsTreeNames) {
  // A session collects stand trees as labelled Newick, so collecting
  // without labels is rejected at construction; counting needs none.
  const auto ds = benchutil::make_multi_component(params_for_seed(1, 2));
  SessionOptions so;
  so.engine.collect_trees = true;
  EXPECT_THROW(IncrementalSession(ds.species_tree, ds.pam, so),
               support::InvalidInput);
  so.engine.tree_names = &ds.taxa;
  EXPECT_NO_THROW(IncrementalSession(ds.species_tree, ds.pam, so));
  so.engine.collect_trees = false;
  so.engine.tree_names = nullptr;
  EXPECT_NO_THROW(IncrementalSession(ds.species_tree, ds.pam, so));
}

TEST(SessionOptionRules, RejectsWholeInstanceOverrides) {
  // initial_constraint and insertion_order index the whole constraint list,
  // which every PAM edit can change. run_sharded accepts both (it clears
  // them per shard); a session rejects them at construction.
  const auto ds = benchutil::make_multi_component(params_for_seed(1, 2));
  SessionOptions so;
  so.engine.initial_constraint = 0;
  EXPECT_THROW(IncrementalSession(ds.species_tree, ds.pam, so),
               support::InvalidInput);
  so.engine = Options{};
  so.engine.insertion_order = {0, 1, 2};
  EXPECT_THROW(IncrementalSession(ds.species_tree, ds.pam, so),
               support::InvalidInput);

  Options whole;
  whole.initial_constraint = 0;
  whole.insertion_order = {0, 1, 2};
  const auto dec = decompose::analyze_pam(ds.species_tree, ds.pam);
  EXPECT_NO_THROW(decompose::run_sharded(dec.constraints, whole));
}

}  // namespace
}  // namespace gentrius
