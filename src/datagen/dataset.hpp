// Dataset synthesis.
//
// The paper evaluates on (a) the simulated instances of the original
// Gentrius manuscript — 50-300 taxa, 5-30 loci, 30-50 % missing data, i.i.d.
// missingness — and (b) empirical multi-gene datasets from RAxML Grove.
// Neither corpus ships with this reproduction, so we regenerate both
// *recipes*: `make_simulated` reproduces (a) exactly (scaled sizes),
// `make_empirical_like` substitutes (b) with the missingness *structure*
// empirical PAMs exhibit: heavy-tailed per-locus missingness, clade-wise
// dropout on a Yule species tree, and a couple of near-comprehensive
// backbone loci. Both are fully deterministic from a 64-bit seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pam/pam.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"
#include "support/rng.hpp"

namespace gentrius::datagen {

/// A complete problem instance: taxa, (optional) ground-truth species tree,
/// PAM, and the constraint trees Gentrius runs on.
struct Dataset {
  std::string name;
  phylo::TaxonSet taxa;
  phylo::Tree species_tree;  ///< leaf-less when constraints were given directly
  pam::Pam pam;
  std::vector<phylo::Tree> constraints;

  /// Crafted instances (Fig. 5 families) rely on a specific initial agile
  /// tree and insertion order; when set, run the engine with heuristics off
  /// and these overrides.
  std::optional<std::size_t> forced_initial_constraint;
  std::vector<phylo::TaxonId> forced_insertion_order;

  std::size_t taxon_count() const { return taxa.size(); }
};

struct SimulatedParams {
  std::size_t n_taxa = 50;
  std::size_t n_loci = 8;
  double missing_fraction = 0.4;  ///< i.i.d. probability of a 0-cell
  std::size_t min_taxa_per_locus = 4;
  std::uint64_t seed = 1;
};

/// Simulated-mode instance: uniform random species tree, i.i.d. PAM,
/// constraints = induced subtrees (the stand is therefore non-empty: it
/// contains at least the species tree).
Dataset make_simulated(const SimulatedParams& params);

struct EmpiricalLikeParams {
  std::size_t n_taxa = 60;
  std::size_t n_loci = 10;
  /// Mean of the heavy-tailed per-locus missingness distribution is roughly
  /// base + tail/4.
  double base_missing = 0.15;
  double tail_missing = 0.75;
  /// Additional i.i.d. dropout applied after clade dropout.
  double scatter_missing = 0.08;
  std::size_t backbone_loci = 1;  ///< widely sampled loci (~15 % missing)
  /// Fraction of taxa sampled in only `rogue_loci` loci. Sparsely sampled
  /// ("rogue") taxa are ubiquitous in empirical multi-gene matrices and are
  /// the main source of large stands: each admits many placements.
  double rogue_fraction = 0.15;
  std::size_t rogue_loci = 2;
  std::size_t min_taxa_per_locus = 4;
  std::uint64_t seed = 1;
};

/// Empirical-like instance: Yule species tree, clade-correlated dropout.
Dataset make_empirical_like(const EmpiricalLikeParams& params);

/// Fig. 5a-style instance ("speedup plateau"): the initial split has one
/// cheap dead-end branch and one long forced chain, so no tasks can be
/// created and extra threads starve.
Dataset make_plateau_instance(std::size_t chain_length, std::uint64_t seed);

/// Fig. 5b-style instance ("super-linear under stopping rules"): two of the
/// three initial-split branches lead to large zero-stand-tree regions
/// (every path ends in a dead end), the third is stand-rich. `free_taxa`
/// controls the region sizes (both grow roughly factorially with it). With
/// the intermediate-state stopping rule active, serial execution exhausts
/// its budget in the barren region it descends first.
Dataset make_superlinear_instance(std::size_t free_taxa, std::uint64_t seed);

/// Granularity-stress instance ("hand-off flood"): each of the `depth`
/// missing taxa is pinned to its own anchor clade by one quartet, so it has
/// three admissible branches at every state, or five for the w = depth/4
/// (at least 1) taxa whose clade is widened to a triple. The search tree
/// holds 3^(depth-w)·5^w stand trees, no dead ends, and an offer-eligible
/// frame at every state with >= 3 remaining taxa. Under the paper's offer
/// rule the hand-off traffic saturates the central queue's critical
/// section at high N_t. `seed` permutes the insertion order and picks the
/// widened positions (same stand size, independent scheduling repetitions).
Dataset make_flood_instance(std::size_t depth, std::uint64_t seed);

/// Registers labels "T0".."T{n-1}" and returns their ids.
std::vector<phylo::TaxonId> default_taxa(phylo::TaxonSet& taxa, std::size_t n);

}  // namespace gentrius::datagen
