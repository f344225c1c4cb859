// Incremental re-enumeration of a live dataset under PAM edits.
//
// An IncrementalSession owns a species tree, a presence/absence matrix, and
// a fingerprint-keyed ResultCache. Each re-enumeration decomposes the
// current induced constraint set into interaction-graph components
// (src/decompose), canonicalizes every component, and serves clean
// components — those whose canonical fingerprint hits the cache — without
// expanding a single state. Only dirty components run through the engine
// (serial / pool / virtual backends, exactly as run_sharded would run
// them); counts recombine by the shared saturating product and stands by
// the shared cross-product streamer (decompose/shard_exec.hpp), so the
// combined Result's count and stand set are byte-equal to a from-scratch
// decompose::run_sharded of the same instance at every edit step.
//
// The residual shard — whose interleaving count M usually dominates a
// from-scratch run — is cached by its size signature (universe size +
// sorted enumerable component sizes) plus the pass-through constraints of
// non-enumerable components byte for byte. M is guaranteed to depend on
// nothing beyond the signature only when every component is enumerable and
// has <= 5 taxa (every binary tree on <= 5 taxa has the same shape;
// DESIGN.md "Decomposition"). From 6 taxa on M can depend on the
// representatives' shapes, so whole-instance counts of such sessions are
// not exact, while per-component counts are. Any edit that reshapes a
// component without resizing the split or rewriting the pass-throughs
// reuses the residual outright; that reuse, plus per-component reuse, is
// where the >= 5x amortized speedup of BENCH_9 comes from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "decompose/sharded.hpp"
#include "gentrius/options.hpp"
#include "incremental/cache.hpp"
#include "incremental/delta.hpp"
#include "pam/pam.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"
#include "support/fingerprint.hpp"

namespace gentrius::incremental {

struct SessionOptions {
  /// Engine options per shard run. decompose must be kComponents
  /// (validate_options(kIncremental) rejects anything else);
  /// collect_trees requires tree_names.
  core::Options engine;
  /// Shard execution backend (serial / pool / virtual), as in run_sharded.
  decompose::ShardRunOptions run;
  /// ResultCache entries (components + residual signatures). 0 disables
  /// caching — every re-enumeration is from scratch.
  std::size_t cache_capacity = 256;
  /// Loci with fewer present taxa induce no constraint (pam::induced_subtrees).
  std::size_t min_taxa = 4;
};

class IncrementalSession {
 public:
  /// The species tree must span the full taxon universe the session will
  /// ever see: add_taxon edits activate one of its leaves. Throws
  /// InvalidInput on rejected option combinations (see validate_options)
  /// or when the initial matrix has more taxa than the species tree.
  IncrementalSession(phylo::Tree species_tree, pam::Pam pam,
                     SessionOptions options);

  const pam::Pam& pam() const noexcept { return pam_; }
  const phylo::Tree& species_tree() const noexcept { return species_; }

  /// Re-enumerates the current matrix, serving clean components from the
  /// cache. Result::cache reports this run's cache traffic;
  /// Result::shards marks reused shards with ShardStats::reused.
  core::Result enumerate();

  /// Applies one edit (or a batched script), then re-enumerates once.
  core::Result apply(const PamDelta& edit);
  core::Result apply(const EditScript& script);

  /// Classification of the most recent apply() against the pre/post
  /// component splits (merged across a script's edits).
  const DeltaClass& last_classification() const noexcept {
    return last_class_;
  }

  /// Cache traffic accumulated over the session's lifetime.
  const core::CacheStats& lifetime_cache_stats() const noexcept {
    return lifetime_;
  }

  /// Canonical whole-instance fingerprint of the current matrix + species
  /// tree (pam::canonical_encode mixed with the species tree's canonical
  /// instance encoding).
  support::Fingerprint instance_fingerprint() const;

 private:
  core::Result run_cached();

  phylo::Tree species_;
  pam::Pam pam_;
  SessionOptions options_;
  ResultCache cache_;
  core::CacheStats lifetime_;
  DeltaClass last_class_;
};

}  // namespace gentrius::incremental
