// Open-addressing scratch maps from 64-bit keys to small payloads.
//
// The Gentrius inner loop buckets agile-tree edges by their common-subtree
// edge key once per (state, constraint tree) pair. The maps are reused
// across millions of states, so clearing must be O(1): an epoch counter
// marks slots stale instead of zeroing the table.
//
// The Terrace uses one instance as a scratch key -> dense-slot-id map while
// rebuilding a constraint mapping: every distinct common-subtree edge key is
// interned to a small integer once, and all hot-path bookkeeping (preimage
// counts, intrusive preimage lists, admissibility probes) then runs on
// plain slot-indexed arrays instead of 64-bit hash lookups.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gentrius::support {

/// Maps uint64 keys (never 0 is *not* required) to uint32 values.
/// insert-or-find only; no deletion. Capacity grows on demand: growth
/// doubles the table, a bounded cost since it only ever grows to the
/// per-problem high-water mark.
class KeyMap {
 public:
  explicit KeyMap(std::size_t expected = 64) {
    rehash(table_size_for(expected));
  }

  /// Forgets all entries in O(1).
  void clear() noexcept {
    if (++epoch_ == 0) {  // epoch wrapped: must actually wipe the stamps
      for (auto& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
    count_ = 0;
  }

  std::size_t size() const noexcept { return count_; }

  /// Returns a reference to the value for key, inserting value 0 if absent.
  std::uint32_t& operator[](std::uint64_t key) {
    if ((count_ + 1) * 4 >= slots_.size() * 3) grow();
    const std::size_t idx = find_slot(key);
    Slot& s = slots_[idx];
    if (s.epoch != epoch_) {
      s.epoch = epoch_;
      s.key = key;
      s.value = 0;
      ++count_;
    }
    return s.value;
  }

  /// Returns the value for key, or fallback when absent.
  std::uint32_t get(std::uint64_t key, std::uint32_t fallback = 0) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = mix(key) & mask;
    for (;;) {
      const Slot& s = slots_[idx];
      if (s.epoch != epoch_) return fallback;
      if (s.key == key) return s.value;
      idx = (idx + 1) & mask;
    }
  }

  bool contains(std::uint64_t key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = mix(key) & mask;
    for (;;) {
      const Slot& s = slots_[idx];
      if (s.epoch != epoch_) return false;
      if (s.key == key) return true;
      idx = (idx + 1) & mask;
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
    std::uint32_t epoch = 0;
  };

  static std::size_t table_size_for(std::size_t expected) {
    std::size_t n = 16;
    while (n * 3 < expected * 4) n <<= 1;
    return n;
  }

  static std::uint64_t mix(std::uint64_t x) noexcept {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
  }

  std::size_t find_slot(std::uint64_t key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = mix(key) & mask;
    while (slots_[idx].epoch == epoch_ && slots_[idx].key != key)
      idx = (idx + 1) & mask;
    return idx;
  }

  void rehash(std::size_t new_size) {
    slots_.assign(new_size, Slot{});
    epoch_ = 1;
    count_ = 0;
  }

  void grow() {
    const std::vector<Slot> old = std::move(slots_);
    const std::uint32_t old_epoch = epoch_;
    rehash(old.size() * 2);
    for (const Slot& s : old)
      if (s.epoch == old_epoch) (*this)[s.key] = s.value;
  }

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 1;
  std::size_t count_ = 0;
};

}  // namespace gentrius::support
