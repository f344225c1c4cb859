// Monotonic arena allocator for per-worker scratch state.
//
// A Terrace owns ~30 separately-malloc'd arrays (mapping-sweep scratch,
// slot-interning tables, per-constraint storage). All of them
// share one lifetime — the Terrace's — and all are hot: the mapping-rebuild
// sweep streams cnt_/xorv_/ctx_ in lockstep, the admissibility probes walk
// edge_slot_/target_slot_ pairs. Backing them with one bump-pointer arena
// buys two things:
//  * construction/teardown of a worker's Terrace is a handful of block
//    allocations instead of dozens of mallocs (workers build one Terrace per
//    adopted task replay in the bench harness);
//  * arrays allocated together in one rebuild batch are contiguous, so the
//    sweeps touch one warm region instead of malloc-scattered lines.
// Steady-state enumeration performs no allocation at all: every container
// reaches its high-water capacity during the first states and the arena
// serves later growth from already-reserved blocks.
//
// Design: a chunked monotonic buffer (64 KiB blocks, oversized requests get
// a dedicated block) with a std-compatible ArenaAllocator<T> handle.
// Deallocation is a no-op — freed space is reclaimed only when the arena
// dies. That is the right trade for Terrace scratch, whose containers only
// ever grow toward a bounded high-water mark; it would be the wrong trade
// for unbounded churn. The arena is handed out through std::shared_ptr so
// container copies (Terrace is copyable: the bench harness clones scout
// instances) keep their backing store alive without sharing mutable state —
// the arena itself is not thread-safe and must stay worker-private, like
// everything else in a Terrace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "support/check.hpp"

namespace gentrius::support {

class Arena {
 public:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bytes of block capacity currently owned (diagnostics).
  std::size_t reserved_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& b : blocks_) total += b.size;
    return total;
  }

  /// Bytes handed out so far (never decreases; deallocate is a no-op).
  std::size_t allocated_bytes() const noexcept { return allocated_; }

  void* allocate(std::size_t bytes, std::size_t align) {
    GENTRIUS_DCHECK(align != 0 && (align & (align - 1)) == 0);
    if (bytes == 0) bytes = 1;
    std::uintptr_t p = (cursor_ + (align - 1)) & ~(std::uintptr_t{align} - 1);
    if (p + bytes > limit_) {
      new_block(bytes + align);
      p = (cursor_ + (align - 1)) & ~(std::uintptr_t{align} - 1);
    }
    cursor_ = p + bytes;
    allocated_ += bytes;
    return reinterpret_cast<void*>(p);
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void new_block(std::size_t min_bytes) {
    const std::size_t size = min_bytes > kBlockBytes ? min_bytes : kBlockBytes;
    Block b{std::make_unique<std::byte[]>(size), size};
    cursor_ = reinterpret_cast<std::uintptr_t>(b.data.get());
    limit_ = cursor_ + size;
    blocks_.push_back(std::move(b));
  }

  std::vector<Block> blocks_;
  std::uintptr_t cursor_ = 0, limit_ = 0;  // cursor_ == limit_: no room
  std::size_t allocated_ = 0;
};

/// std::allocator-compatible handle. Containers holding an ArenaAllocator
/// share ownership of the arena, so a copied container (and its copied
/// allocator) stays valid even if the original owner dies first.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(std::shared_ptr<Arena> arena)
      : arena_(std::move(arena)) {
    GENTRIUS_DCHECK(arena_ != nullptr);
  }

  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  // Moves copy: a container move steals the source's allocator, and the
  // moved-from container (e.g. KeyMap::grow's table swap) must still be able
  // to allocate. Copying the shared_ptr keeps both sides armed.
  ArenaAllocator(const ArenaAllocator&) noexcept = default;
  ArenaAllocator& operator=(const ArenaAllocator&) noexcept = default;

  T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_alloc();
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }

  void deallocate(T*, std::size_t) noexcept {}  // monotonic: reclaim at death

  bool operator==(const ArenaAllocator& other) const noexcept {
    return arena_ == other.arena_;
  }

  const std::shared_ptr<Arena>& arena() const noexcept { return arena_; }

 private:
  std::shared_ptr<Arena> arena_;
};

/// Shorthand for an arena-backed std::vector.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace gentrius::support
