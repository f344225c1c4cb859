// Sharded enumeration of a decomposed instance (run_sharded).
//
// The product law (DESIGN.md "Decomposition"): with the constraint set
// split into interaction-graph components C_1..C_k (components.hpp),
//
//   stand(whole) = disjoint union over tuples (t_1..t_k), t_i in
//                  stand(C_i), of stand({t_1..t_k} + vacuous constraints)
//   count(whole) = prod_i count(C_i) * M
//
// where M is the interleaving count, the number of trees on the whole
// universe displaying one fixed tree per component. The product form
// assumes M does not depend on which stand trees were fixed, and then
// M = (2n-5)!! / prod_i (2n_i-5)!!. That is guaranteed only when at most
// one enumerable component has >= 6 taxa: every binary tree on <= 5 taxa
// has the same shape, so relabeling inside such a component maps any of
// its trees onto any other, and it adds a shape-free factor as free taxa
// do. Two components of >= 6 taxa can make M depend on the fixed trees'
// shapes, and then the whole-instance count below is not exact (two
// 6-taxon blocks: 1,473,675 sharded against 1,484,939 monolithic);
// Result::count_exact is false then. Each component shard's count stays
// exact, and the stand union above holds at any size. The sharded driver
// runs k component shards plus one *canonical residual shard* — the
// instance whose constraints are one canonical representative stand tree
// per component — through the existing engine, multiplies the counts
// (saturating), and, when trees are collected, streams the cross product:
// every tuple of component stand trees is itself a tiny Gentrius instance
// whose stand is enumerated and emitted.
//
// The representative of a component is the first stand tree of a canonical
// serial probe run (default Options, collect one tree) — a deterministic
// function of the component alone, so the residual shard, the shard order
// and every trace line derived from them are reproducible byte for byte.
// Only an enumerated residual needs representatives: under the closed-form
// residual nothing is probed.
//
// An optional ResultCache (cache.hpp) keys every shard by its canonical
// instance; a hit is served without a run. The incremental session
// (src/incremental) is run_sharded over its current matrix with the
// session's cache, so it equals an uncached run by construction.
//
// Shards run serially, on the real pool, or on the virtual-time simulator
// (ShardBackend); virtual runs charge CostModel::shard_dispatch_cost /
// shard_merge_cost per executed shard, back to back on one machine.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "decompose/cache.hpp"
#include "decompose/components.hpp"
#include "gentrius/options.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"
#include "vthread/virtual_pool.hpp"

namespace gentrius::decompose {

/// Which engine driver executes each shard.
enum class ShardBackend : std::uint8_t {
  kSerial,   ///< core::run_serial per shard
  kPool,     ///< parallel::run_parallel per shard (real threads)
  kVirtual,  ///< vthread::run_virtual per shard (deterministic simulation)
};

struct ShardRunOptions {
  ShardBackend backend = ShardBackend::kSerial;
  std::size_t n_threads = 1;  ///< per shard (pool/virtual backends)
  vthread::CostModel costs;  ///< virtual backend only
  /// Compute the residual shard's interleaving count in closed form,
  ///   M = (2n-5)!! / prod_i (2n_i-5)!!
  /// (DESIGN.md "Decomposition"), instead of probing representatives and
  /// enumerating the residual instance. Equal to the enumerated residual
  /// when at most one enumerable component has >= 6 taxa (the product-law
  /// suite checks it against enumeration there); with two such components
  /// the interleaving count varies with the representatives' shapes, so
  /// neither value makes the product exact (Result::count_exact is false).
  /// Applied only when every component is enumerable; instances with
  /// pass-through constraints fall back to enumeration. Off by default: the
  /// enumerated residual run (and its golden trace lines) is part of the
  /// paper-faithful output. This is what makes instances with many
  /// components tractable at all: M grows double-factorially with the
  /// universe and dwarfs every component shard.
  bool residual_closed_form = false;
};

/// The executable decomposition of an instance: the component split, one
/// canonical representative per enumerable component, and the residual
/// instance (representatives plus the pass-through constraints of
/// non-enumerable components).
struct ShardPlan {
  ComponentSplit split;
  /// Representative stand tree per enumerable component, in canonical
  /// component order. Empty trees never appear: a component whose stand is
  /// empty sets `empty_component` instead.
  std::vector<phylo::Tree> representatives;
  /// Constraints of non-enumerable components, passed through verbatim.
  std::vector<phylo::Tree> passthrough;
  /// representatives + passthrough: the canonical residual instance.
  std::vector<phylo::Tree> residual_constraints;
  /// Some enumerable component has an empty stand (the whole stand is
  /// empty; the residual shard is not runnable and is skipped).
  bool empty_component = false;
  /// Internal id-stable labels ("x<id>") used to round-trip component stand
  /// trees through the engine's Newick collection. Outlives every shard run
  /// started from this plan.
  phylo::TaxonSet labels;
};

/// Canonical one-line rendering of a shard rollup, shared by golden traces,
/// benches and tests so they agree byte for byte:
///   "shard <kind> taxa=N constraints=N trees=N states=N dead_ends=N
///    reason=<reason>"
/// Deliberately integer-only (no makespans) so the line is identical across
/// backends that enumerate the same shard.
std::string shard_trace_line(const core::ShardStats& s);

/// Builds the shard plan: analyzes components and runs one canonical serial
/// probe per enumerable component for its representative. Throws
/// InvalidInput when no component is enumerable (the same inputs
/// build_problem rejects).
ShardPlan plan_shards(const std::vector<phylo::Tree>& constraints);

/// Runs the decomposed instance: component shards plus the residual shard
/// through the chosen backend, combining counts by (saturating) product and
/// — when options.collect_trees — stands by cross-product streaming.
/// Result::shards carries the per-shard rollups in canonical order
/// (components first, residual last); intermediate_states / dead_ends /
/// sched / selection are the sums over shard runs. Result::count_exact is
/// false when two or more enumerable components have >= 6 taxa and the
/// product is non-zero: the product law does not guarantee that count (on
/// either residual path, cached or not). Shard runs clear
/// Options::initial_constraint and Options::insertion_order (whole-instance
/// indices and orders are meaningless inside a shard); every other option
/// applies per shard. This function is the one way into decomposition.
///
/// With a `cache`, each component and an enumerated residual are keyed by
/// core::canonicalize_instance. Every component is looked up before any
/// runs, the residual only after the components' results are inserted. A
/// hit is served under the consumer's shard kind with ShardStats::reused
/// set; a collecting component is served only from an entry that holds its
/// complete stand. Finished misses are inserted. Result::cache reports the
/// traffic, and the summed counters, scheduler and selection stats and the
/// virtual makespan cover executed shards only. Counts, per-shard counts
/// and stands equal an uncached run's.
core::Result run_sharded(const std::vector<phylo::Tree>& constraints,
                         const core::Options& options,
                         const ShardRunOptions& run = {},
                         ResultCache* cache = nullptr);

}  // namespace gentrius::decompose
