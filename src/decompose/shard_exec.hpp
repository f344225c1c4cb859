// Shared shard-execution and result-combination helpers.
//
// run_sharded (sharded.cpp) and the incremental session (src/incremental)
// must plan and combine shards *identically* — same labels, same
// representatives, same shard-local option view, same residual rollup, same
// saturating product, same cross-product streaming order — or the
// incremental differential guarantee ("byte-equal counts and stand sets at
// every edit step") silently breaks. These helpers are that single shared
// path. They are an internal decompose API: subject to change with the
// drivers that use them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "decompose/components.hpp"
#include "decompose/sharded.hpp"
#include "gentrius/options.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"

namespace gentrius::decompose::detail {

/// a * b clamped to uint64 max; sets `saturated` on clamp.
std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b,
                             bool& saturated);

/// The component's member constraints, in input order.
std::vector<phylo::Tree> subset_constraints(
    const std::vector<phylo::Tree>& constraints, const Component& comp);

/// Taxa over all components: the universe of the residual shard.
std::size_t universe_size(const ComponentSplit& split);

/// Id-stable labels for Newick round-tripping: label "x<i>" gets id i, for
/// every id up to the split's largest taxon.
phylo::TaxonSet id_labels(const ComponentSplit& split);

/// Canonical representative of a component: the first stand tree of a
/// default-options serial probe collecting one tree, a deterministic
/// function of the component alone (independent of the caller's heuristic
/// configuration). nullopt when the component's stand is empty. `labels`
/// must come from id_labels. Probe work is not accumulated into any Result.
std::optional<phylo::Tree> probe_representative(
    const std::vector<phylo::Tree>& component, phylo::TaxonSet& labels);

/// Shard-local option view: whole-instance overrides cannot survive into a
/// shard (initial_constraint indexes the whole constraint list, an
/// insertion_order permutes the whole missing-taxa set), and the shard
/// itself must never recurse into decomposition.
core::Options shard_options(const core::Options& options);

/// Runs one shard instance through the backend selected by `run`.
core::Result run_one_shard(const std::vector<phylo::Tree>& constraints,
                           const core::Options& options,
                           const ShardRunOptions& run);

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

/// The residual shard's rollup under the closed form: M is a formula, not a
/// run, so only the shape and the count are set.
core::ShardStats closed_form_stats(const ComponentSplit& split,
                                   std::size_t n_constraints,
                                   std::uint64_t count);

/// Per-shard rollup of a shard run's Result.
core::ShardStats make_stats(core::ShardStats::Kind kind, std::size_t n_taxa,
                            std::size_t n_constraints, const core::Result& r);

/// Folds a shard run into the combined result (counters, scheduler and
/// selection stats, first-stopping-rule-wins reason).
void accumulate(core::Result& out, const core::Result& r);

/// Sharded virtual-time accounting (virtual backend only; see CostModel).
double combine_makespans(const std::vector<double>& makespans,
                         const ShardRunOptions& run);

/// Cross-product stand streaming: every tuple of component stand trees,
/// plus the vacuous pass-through constraints, is an instance whose stand is
/// a slice of the whole stand; the slices are disjoint and exhaustive.
/// `component_stands` holds one lexicographically sorted list per
/// enumerable component, as Newick over `labels`. Appends to out.trees up
/// to caller.collect_limit; tuple instances run serially (they are
/// interleaving-only and cheap). `base` must be the shard-local option
/// view; `caller` supplies collect_limit / tree_names; `residual_count` is
/// the interleaving count every tuple instance must reproduce (DCHECKed).
void stream_cross_product(
    const std::vector<std::vector<std::string>>& component_stands,
    const std::vector<phylo::Tree>& passthrough, phylo::TaxonSet& labels,
    const core::Options& base, const core::Options& caller,
    std::uint64_t residual_count, core::Result& out);

}  // namespace gentrius::decompose::detail
