// Bounded LRU result cache keyed by canonical instance encodings.
//
// run_sharded's optional cache (sharded.hpp): one entry per canonicalized
// shard instance, a component or an enumerated residual alike, keyed by
// core::canonicalize_instance (src/gentrius/problem.hpp). The encoding
// serializes the constraint trees over canonical taxon ranks, and a stand
// depends only on its instance up to taxon relabeling, so the one key is
// exact for every shard at any size. Values live in canonical *rank space*
// (counts, optionally the full stand as rank-label Newick), so a hit from
// any relabeling of the same instance can be translated back into the
// caller's taxon ids.
//
// Every lookup compares the stored canonical encoding byte for byte — a
// 128-bit fingerprint collision therefore costs a recomputation, never a
// wrong answer. Only *completed* runs are inserted: a result truncated by a
// stopping rule is not a property of the instance and must never be served
// later. Hits are shared: evicting or replacing an entry drops the cache's
// reference, never a caller's.
//
// The cache also memoizes canonical keys (key()) by each instance's exact
// content: constraint order and, per tree, every vertex slot with a live
// vertex's taxon and half-edges (neighbour and edge ids, in adjacency
// order). That is all canonicalize_instance reads, edge ids included (its
// cherry test checks edge liveness), so equal content has an equal key. The
// content is the memo's map key, so a memo hit compares all of it. The memo
// keeps at most capacity() keys under the entries' LRU rule on its own
// clock, so it moves no entry's traffic or LRU position. Keys are shared.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gentrius/options.hpp"
#include "gentrius/problem.hpp"
#include "phylo/tree.hpp"
#include "support/fingerprint.hpp"

namespace gentrius::decompose {

struct CacheEntry {
  /// Full canonical encoding of the keyed instance (collision check).
  std::string encoding;
  std::uint64_t stand_trees = 0;
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
  /// capacity == 0 disables caching (every lookup misses, nothing is kept).
  explicit ResultCache(std::size_t capacity)
      : entries_(capacity), keys_(capacity) {}

  /// The entry for `fp` whose encoding matches byte for byte, or nullptr.
  /// A hit refreshes the entry's LRU position.
  std::shared_ptr<const CacheEntry> find(const support::Fingerprint& fp,
                                         const std::string& encoding);

  /// Inserts or replaces the entry for `fp`, evicting the least recently
  /// used entry when over capacity.
  void insert(const support::Fingerprint& fp, CacheEntry entry);

  /// core::canonicalize_instance(instance), memoized by the instance's
  /// exact content: refined only when no memoized instance has that
  /// content.
  std::shared_ptr<const core::CanonicalInstance> key(
      const std::vector<phylo::Tree>& instance);

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return entries_.capacity(); }
  std::uint64_t evictions() const noexcept { return entries_.evictions(); }
  /// Canonical keys held by the memo (at most capacity()).
  std::size_t memoized_keys() const noexcept { return keys_.size(); }

 private:
  /// At most `capacity` values; inserting into a full map evicts the least
  /// recently used one. std::map (not unordered): lookups are O(log n) on
  /// tiny n, and the eviction scan iterates deterministically — no
  /// hash-order dependence anywhere.
  template <class Key, class Value>
  class Lru {
   public:
    explicit Lru(std::size_t capacity) : capacity_(capacity) {}

    /// The value under `key` if `accept` takes it, refreshing its LRU
    /// position; nullptr otherwise.
    template <class Accept>
    const Value* find(const Key& key, Accept accept) {
      auto it = slots_.find(key);
      if (it == slots_.end() || !accept(it->second.value)) return nullptr;
      it->second.last_used = ++tick_;
      return &it->second.value;
    }

    /// Inserts or replaces the value under `key`; a no-op at capacity 0.
    void insert(Key key, Value value) {
      if (capacity_ == 0) return;
      auto it = slots_.find(key);
      if (it != slots_.end()) {
        it->second = Slot{std::move(value), ++tick_};
        return;
      }
      if (slots_.size() >= capacity_) {
        auto victim = slots_.begin();
        for (auto i = slots_.begin(); i != slots_.end(); ++i)
          if (i->second.last_used < victim->second.last_used) victim = i;
        slots_.erase(victim);
        ++evictions_;
      }
      slots_.emplace(std::move(key), Slot{std::move(value), ++tick_});
    }

    std::size_t size() const noexcept { return slots_.size(); }
    std::size_t capacity() const noexcept { return capacity_; }
    std::uint64_t evictions() const noexcept { return evictions_; }

   private:
    struct Slot {
      Value value;
      std::uint64_t last_used = 0;
    };

    std::map<Key, Slot> slots_;
    std::size_t capacity_ = 0;
    std::uint64_t tick_ = 0;
    std::uint64_t evictions_ = 0;
  };

  Lru<support::Fingerprint, std::shared_ptr<const CacheEntry>> entries_;
  /// Exact instance content -> its canonical key.
  Lru<std::vector<std::uint32_t>,
      std::shared_ptr<const core::CanonicalInstance>>
      keys_;
};

}  // namespace gentrius::decompose
