// Shard helpers that callers outside run_sharded use: the shard-local option
// view, a component's constraint subset, the closed-form residual count and
// the cross-product stand streamer. Everything else run_sharded needs is
// local to sharded.cpp. An internal decompose API: subject to change with
// run_sharded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "decompose/components.hpp"
#include "gentrius/options.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"

namespace gentrius::decompose::detail {

/// The component's member constraints, in input order.
std::vector<phylo::Tree> subset_constraints(
    const std::vector<phylo::Tree>& constraints, const Component& comp);

/// Shard-local option view: whole-instance overrides cannot survive into a
/// shard (initial_constraint indexes the whole constraint list, an
/// insertion_order permutes the whole missing-taxa set).
core::Options shard_options(const core::Options& options);

/// Closed-form residual interleaving count (ShardRunOptions::
/// residual_closed_form). `applicable` is false when some component is
/// non-enumerable (its pass-through constraints are not representative
/// trees, so the identity does not cover them). `saturated` clamps the
/// count to uint64 max when M overflows; intermediates use 128-bit
/// arithmetic, exact far past the point where M itself overflows.
struct ResidualClosedForm {
  bool applicable = false;
  bool saturated = false;
  std::uint64_t count = 0;
};

ResidualClosedForm closed_form_residual(const ComponentSplit& split);

/// Cross-product stand streaming: every tuple of component stand trees,
/// plus the vacuous pass-through constraints, is an instance whose stand is
/// a slice of the whole stand; the slices are disjoint and exhaustive.
/// `component_stands` holds one lexicographically sorted list per
/// enumerable component, as Newick over `labels`. Appends to out.trees up
/// to caller.collect_limit; tuple instances run serially (they are
/// interleaving-only and cheap). `base` must be the shard-local option
/// view; `caller` supplies collect_limit / tree_names; `residual_count` is
/// the interleaving count every tuple instance with at most one tree of
/// >= 6 taxa must reproduce (DCHECKed).
void stream_cross_product(
    const std::vector<std::vector<std::string>>& component_stands,
    const std::vector<phylo::Tree>& passthrough, phylo::TaxonSet& labels,
    const core::Options& base, const core::Options& caller,
    std::uint64_t residual_count, core::Result& out);

}  // namespace gentrius::decompose::detail
