// Fixed-capacity ring of task slots: the storage under every task queue.
//
// The central TaskQueue, each worker's StealDeque and the simulator's
// VirtualQueue and VirtualDeques all keep their tasks here. A push swaps the
// producer's staged task into the back slot and a pop swaps a slot with the
// consumer's pooled task, so every hand-off is O(1) pointer exchanges and
// allocation-free on both sides: the vectors coming back keep the capacity
// the slot accumulated. The ring itself is not synchronized; each owner
// guards it with its own mutex (real threads) or SequentialRole (the
// simulator).
//
// A slot can carry a stamp beside its task: the simulator stamps each task
// with the virtual time it becomes available. Real rings use NoStamp, which
// takes no space.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "gentrius/enumerator.hpp"
#include "support/check.hpp"

namespace gentrius::parallel {

struct NoStamp {};

template <class Stamp = NoStamp>
class TaskRing {
 public:
  explicit TaskRing(std::size_t capacity)
      : capacity_(capacity), slots_(capacity) {
    GENTRIUS_CHECK(capacity >= 1);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }
  /// Pushes refused because the ring was full.
  std::uint64_t rejections() const { return rejections_; }
  /// Highest occupancy any push reached.
  std::size_t max_depth() const { return max_depth_; }

  /// Swaps `task` into the back slot with `stamp` beside it. A full ring
  /// counts a rejection and returns false; `task` is left untouched then.
  bool push_back(core::Task& task, const Stamp& stamp = {}) {
    if (full()) {
      ++rejections_;
      return false;
    }
    Slot& slot = slots_[(head_ + size_) % capacity_];
    swap_task(slot.task, task);
    slot.stamp = stamp;
    ++size_;
    max_depth_ = std::max(max_depth_, size_);
    return true;
  }

  /// Swaps the oldest task into `out`; false (out untouched) when empty.
  bool pop_front(core::Task& out) {
    if (empty()) return false;
    swap_task(out, slots_[head_].task);
    head_ = (head_ + 1) % capacity_;
    --size_;
    return true;
  }

  /// Swaps the newest task into `out`; false (out untouched) when empty.
  bool pop_back(core::Task& out) {
    if (empty()) return false;
    --size_;
    swap_task(out, slots_[(head_ + size_) % capacity_].task);
    return true;
  }

  /// The oldest task's stamp. The ring must not be empty.
  const Stamp& front_stamp() const {
    GENTRIUS_DCHECK(!empty());
    return slots_[head_].stamp;
  }

 private:
  struct Slot {
    core::Task task;
    [[no_unique_address]] Stamp stamp{};
  };

  static void swap_task(core::Task& dst, core::Task& src) {
    std::swap(dst.path, src.path);
    dst.next_taxon = src.next_taxon;
    std::swap(dst.branches, src.branches);
  }

  // Member functions never call a container's size(): gentrius-analyze's
  // lock-rank rule resolves calls by name, and size() names locking
  // functions too.
  const std::size_t capacity_;
  std::vector<Slot> slots_;  // fixed: allocated once, never resized
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t rejections_ = 0;
  std::size_t max_depth_ = 0;
};

}  // namespace gentrius::parallel
