// Independent-subproblem analysis: connected components of the constraint
// interaction graph.
//
// Two constraint trees interact iff they share at least one taxon — only
// then can one restrict the placements the other allows. The interaction
// graph therefore has the constraints as vertices and taxon-overlap edges;
// its connected components partition both the constraint set and the taxon
// universe X, and the stand of the whole instance factors over them:
//
//   count(whole) = prod_i count(component_i) * count(residual)
//
// where the residual instance consists of one representative stand tree per
// component (DESIGN.md "Decomposition"). The law, and the closed form
// M = (2n-5)!! / prod_i (2n_i-5)!! for the residual count, are guaranteed
// only when at most one enumerable component has >= 6 taxa: every binary
// tree on <= 5 taxa has the same shape, so such a component cannot make the
// residual count depend on which representatives were fixed. Two larger
// components can, and then the product is not the stand size (two 6-taxon
// blocks: 1,473,675 sharded against 1,484,939 monolithic; 19!!/(7!!)^2 is
// not even an integer) and run_sharded reports Result::count_exact false.
// The per-component counts stay exact. The analyzer below computes the
// partition; sharded.hpp turns it into runnable shards.
//
// Components are reported in canonical order — ascending smallest taxon id
// — so every consumer (sharded drivers, golden traces, benchmarks) sees the
// identical deterministic shard sequence.
#pragma once

#include <cstddef>
#include <vector>

#include "pam/pam.hpp"
#include "phylo/tree.hpp"

namespace gentrius::decompose {

/// One connected component of the constraint interaction graph.
struct Component {
  std::vector<std::size_t> constraint_indices;  ///< into the input list, ascending
  std::vector<phylo::TaxonId> taxa;             ///< union of member taxa, ascending
  /// True when the component contains at least one constraint with >= 3
  /// taxa and can therefore be enumerated as its own Gentrius instance.
  /// Non-enumerable components (all member constraints have <= 2 taxa) are
  /// vacuous — they constrain nothing — and pass their constraints straight
  /// through into the residual instance, which carries their taxa.
  bool enumerable = false;
};

struct ComponentSplit {
  /// Canonical order: ascending by smallest taxon id.
  std::vector<Component> components;
  std::size_t enumerable_count = 0;
};

/// Splits the constraint set into interaction-graph components. Accepts any
/// constraint list build_problem would (and also lists no single component
/// of which is enumerable — the caller decides whether that is an error).
ComponentSplit analyze_components(const std::vector<phylo::Tree>& constraints);

/// PAM input mode: the interaction structure of a presence/absence matrix is
/// the structure of its induced per-locus subtrees (loci with fewer than
/// `min_taxa` present taxa constrain nothing and are skipped, exactly as in
/// pam::induced_subtrees). Returns the constraints alongside the split so
/// the caller can feed both to the sharded drivers.
struct PamDecomposition {
  std::vector<phylo::Tree> constraints;
  ComponentSplit split;
};

PamDecomposition analyze_pam(const phylo::Tree& species_tree,
                             const pam::Pam& pam, std::size_t min_taxa = 4);

}  // namespace gentrius::decompose
