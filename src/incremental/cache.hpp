// Bounded LRU result cache keyed by canonical fingerprints.
//
// One entry per canonicalized shard instance: a decompose component (keyed
// by its constraint-tree canonical encoding, src/gentrius/problem.hpp) or
// the residual shard (keyed by its size signature plus any pass-through
// constraints verbatim). The size signature is guaranteed to determine the
// interleaving count M only when every component is enumerable and has
// <= 5 taxa, the sizes at which all binary trees share one shape (DESIGN.md
// "Decomposition"); from 6 taxa on M can depend on the representatives'
// shapes, so a hit can carry a residual computed from other shapes. Values
// live in canonical *rank space* (counts, the representative, optionally
// the full stand as rank-label Newick), so a hit from any relabeling of the
// same component can be translated back into the session's taxon ids.
//
// Every lookup compares the stored canonical encoding byte for byte — a
// 128-bit fingerprint collision therefore costs a recomputation, never a
// wrong answer. Only *completed* runs are inserted: a result truncated by a
// stopping rule is not a property of the instance and must never be served
// later. This cache is deliberately the seed of ROADMAP item 1's
// service-layer result cache.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gentrius/options.hpp"
#include "support/fingerprint.hpp"

namespace gentrius::incremental {

struct CacheEntry {
  /// Full canonical encoding of the keyed instance (collision check).
  std::string encoding;
  std::uint64_t stand_trees = 0;
  /// Canonical representative stand tree, rank-label Newick; empty when the
  /// component's stand is empty (or for residual entries).
  std::string representative;
  /// The full component stand, rank-label Newick, ascending; only
  /// meaningful when stands_complete (collected without truncation).
  std::vector<std::string> stands;
  bool stands_complete = false;
  /// Shard rollup of the run that computed this entry. Served back with
  /// ShardStats::reused = true on every hit.
  core::ShardStats stats;
};

class ResultCache {
 public:
  /// capacity == 0 disables caching (every lookup misses).
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// The entry for `fp` whose encoding matches byte for byte, or nullptr.
  /// A hit refreshes the entry's LRU position.
  const CacheEntry* find(const support::Fingerprint& fp,
                         const std::string& encoding);

  /// Inserts or replaces the entry for `fp`, evicting the least recently
  /// used entry when over capacity.
  void insert(const support::Fingerprint& fp, CacheEntry entry);

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  struct Slot {
    CacheEntry entry;
    std::uint64_t last_used = 0;
  };

  // std::map (not unordered): lookups are O(log n) on tiny n, and eviction
  // scans iterate deterministically — no hash-order dependence anywhere.
  std::map<support::Fingerprint, Slot> entries_;
  std::size_t capacity_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace gentrius::incremental
