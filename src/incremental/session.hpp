// Incremental re-enumeration of a live dataset under PAM edits.
//
// An IncrementalSession is a cache in front of the decompose pipeline: it
// owns a species tree, a presence/absence matrix and a decompose::
// ResultCache. Each re-enumeration is decompose::run_sharded over the
// current matrix's induced constraints with the session's cache, so its
// count, per-shard counts and stand set equal a from-scratch run_sharded of
// the same instance at every edit step by construction. Every shard, each
// enumerable component and the enumerated residual, is keyed by its
// canonical instance encoding (core::canonicalize_instance); a shard whose
// key hits is served without expanding a single state.
//
// A re-enumeration pays only for what the edits changed. One slot per locus
// holds the locus's exact row and its induced subtree. The species tree
// never changes, so the row determines the subtree, and a slot is rebuilt
// only when its row differs (an add_taxon widens every row, so it rebuilds
// them all); a rolled-back script leaves only slots that match their own
// rows. The cache memoizes canonical keys by exact content
// (ResultCache::key), so an unchanged component is not refined again.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "decompose/cache.hpp"
#include "decompose/sharded.hpp"
#include "gentrius/options.hpp"
#include "incremental/delta.hpp"
#include "pam/pam.hpp"
#include "phylo/tree.hpp"
#include "support/bitset.hpp"

namespace gentrius::incremental {

struct SessionOptions {
  /// Engine options per shard run. collect_trees requires tree_names;
  /// initial_constraint and insertion_order must be unset.
  core::Options engine;
  /// Shard execution backend (serial / pool / virtual), as in run_sharded.
  decompose::ShardRunOptions run;
  /// ResultCache entries (component and residual shards), and the most
  /// canonical keys it memoizes. 0 disables caching — every
  /// re-enumeration is from scratch.
  std::size_t cache_capacity = 256;
  /// Loci with fewer present taxa induce no constraint (pam::induced_subtrees).
  std::size_t min_taxa = 4;
};

class IncrementalSession {
 public:
  /// The species tree must span the full taxon universe the session will
  /// ever see: add_taxon edits activate one of its leaves. Throws
  /// InvalidInput on rejected option combinations (validate_options, plus
  /// the session's own rules on SessionOptions::engine) or when the initial
  /// matrix has more taxa than the species tree.
  IncrementalSession(phylo::Tree species_tree, pam::Pam pam,
                     SessionOptions options);

  const pam::Pam& pam() const noexcept { return pam_; }
  const phylo::Tree& species_tree() const noexcept { return species_; }

  /// Re-enumerates the current matrix; a shard whose canonical key hits the
  /// cache is served without a run. Result::cache reports this run's cache
  /// traffic; Result::shards marks reused shards with ShardStats::reused.
  core::Result enumerate();

  /// Applies one edit (or a batched script), then re-enumerates once. The
  /// script lands on a copy of the matrix, which replaces the session's
  /// only if every edit applies and the edited matrix enumerates; otherwise
  /// the call throws InvalidInput and the session keeps its old matrix.
  core::Result apply(const PamDelta& edit);
  core::Result apply(const EditScript& script);

  /// Cache traffic accumulated over the session's lifetime.
  const core::CacheStats& lifetime_cache_stats() const noexcept {
    return lifetime_;
  }

 private:
  /// A locus's exact row (its present taxa) and the subtree it induces.
  struct Locus {
    support::Bitset row;
    phylo::Tree tree;
  };

  phylo::Tree species_;
  pam::Pam pam_;
  SessionOptions options_;
  decompose::ResultCache cache_;
  core::CacheStats lifetime_;
  /// One slot per locus of the matrix enumerate() last ran on; empty until
  /// built.
  std::vector<std::optional<Locus>> loci_;
};

}  // namespace gentrius::incremental
