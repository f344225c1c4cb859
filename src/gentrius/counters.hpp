// Shared progress counters with batched publication (paper §III-B).
//
// The sequential Gentrius updates three global counters (stand trees,
// intermediate states, dead ends) at every state and checks the stopping
// rules. The parallel version keeps them in std::atomic variables; to avoid
// cache-line ping-pong each thread accumulates locally and publishes every
// 2^10 / 2^13 / 2^10 increments. A consequence the paper documents is that
// parallel runs can overshoot the limits by up to (threads * batch).
//
// One flush rule for every worker: a worker publishes its pending count of
// a kind (a flush) every `batch` units of that kind, and each such flush
// tests the limits and reads the clock (stopping rule 3). A worker alone on
// its sink knows the exact totals, the sink's plus its own pending counts,
// so it also flushes at the unit that reaches a tree or state limit: a
// one-worker run stops exactly at its limits, as the paper's serial program
// does, and pays one atomic add per batch.
//
// Concurrency discipline: CounterSink is deliberately lock-free — every
// member is a std::atomic and there is no mutex to annotate for
// -Wthread-safety. The only cross-thread ordering that matters is the stop
// flag: request_stop publishes with release, stop_requested observes with
// acquire; the counter totals themselves are relaxed (they are monotone sums
// read exactly, after all writers flushed, by the assembling thread).
// LocalCounters is strictly thread-private (one per Enumerator, one
// Enumerator per worker) and must never be shared.
//
// Runs of counts (LocalCounters::count_run): a step that counts a whole
// frame without inserting its taxa adds the frame's units to the pending
// counts together, up to the next unit that flushes, which is counted on
// its own. That stays exact: limits are tested and the clock read only at
// flushes, so a merged run, which holds no flush, changes nothing a
// per-unit count would have observed.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "gentrius/options.hpp"
#include "support/invariant.hpp"
#include "support/stopwatch.hpp"

namespace gentrius::core {

/// Wakes workers parked in a scheduler's blocking wait. A scheduler
/// registers itself with the CounterSink so that request_stop can unpark
/// blocked consumers immediately — without a waker, a worker sleeping in a
/// condition-variable wait stays parked until some *other* worker observes
/// the stop flag and broadcasts, which can stall termination indefinitely
/// on an otherwise-idle pool. wake_all must be safe to call from any thread
/// and must tolerate repeated calls.
class StopWaker {
 public:
  virtual ~StopWaker() = default;
  virtual void wake_all() = 0;
};

/// Process-wide totals. One instance per run, shared by all threads.
class CounterSink {
 public:
  /// `workers`: how many LocalCounters publish into this sink, one per
  /// worker of the run. With one, the sink's totals plus that worker's
  /// pending counts are the exact totals; with more, a total read between
  /// flushes is only a lower bound.
  CounterSink(const StoppingRules& rules, std::size_t workers)
      : rules_(rules), workers_(workers) {}

  void add_stand_trees(std::uint64_t d) {
    // order: pure tally — fetch_add is atomic on its own; cross-thread
    // publication happens when the run completes, and the threshold test
    // below only needs this thread's own returned value
    if (stand_trees_.fetch_add(d, std::memory_order_relaxed) + d >=
        rules_.max_stand_trees)
      request_stop(StopReason::kTreeLimit);
  }

  void add_states(std::uint64_t d) {
    // order: pure tally, same reasoning as add_stand_trees
    if (states_.fetch_add(d, std::memory_order_relaxed) + d >=
        rules_.max_states)
      request_stop(StopReason::kStateLimit);
  }

  void add_dead_ends(std::uint64_t d) {
    // order: pure tally; totals are read after the run completes
    dead_ends_.fetch_add(d, std::memory_order_relaxed);
  }

  /// Stopping rule 3. Called by LocalCounters at every flush a counted
  /// unit triggers; cheap relative to batch work. Wall-clock by definition
  /// (the paper's 168 h limit); equivalence tests disable this rule, so it
  /// cannot perturb serial-vs-parallel comparisons.
  void check_time() {
    if (clock_.seconds() >= rules_.max_seconds)
      request_stop(StopReason::kTimeLimit);
  }

  /// Registers (or clears, with nullptr) the scheduler to unpark when a
  /// stopping rule fires. Register before workers may block on the
  /// scheduler and clear only after every worker's job has returned (the
  /// pool's threads stay parked for the next run, so no join marks the
  /// end); the pointee must stay alive in between.
  void set_stop_waker(StopWaker* waker) {
    // order: release publishes the pointee's construction to the acquire
    // load in request_stop
    waker_.store(waker, std::memory_order_release);
  }

  void request_stop(StopReason why) {
    int expected = -1;
    // order: first-writer-wins tag; readers only consume it after
    // stop_requested() returns true, whose acquire orders this write
    reason_.compare_exchange_strong(expected, static_cast<int>(why),
                                    std::memory_order_relaxed);
    halt();
  }

  /// Stops the run without naming a stopping rule: a worker failed, and
  /// the driver rethrows its exception instead of returning a Result.
  void halt() {
    // order: release pairs with stop_requested()'s acquire, making a
    // preceding reason_ write visible to anyone who observed the stop
    stop_.store(true, std::memory_order_release);
    // order: pairs with set_stop_waker's release so the waker object is
    // fully constructed here; unpark happens *after* the flag store so a
    // woken worker re-checking its predicate observes the stop
    if (StopWaker* w = waker_.load(std::memory_order_acquire)) w->wake_all();
  }

  bool stop_requested() const {
    // order: pairs with request_stop's release; a true read carries the
    // reason_ value with it
    return stop_.load(std::memory_order_acquire);
  }

  /// The rule that fired, or kCompleted when none did.
  StopReason reason() const {
    // order: callers read this after observing stop_ (acquire) or after
    // the run completes; both order the reason_ write before this load
    const int r = reason_.load(std::memory_order_relaxed);
    return r < 0 ? StopReason::kCompleted : static_cast<StopReason>(r);
  }

  std::uint64_t stand_trees() const {
    // order: pure tally, read after the run completes
    return stand_trees_.load(std::memory_order_relaxed);
  }
  std::uint64_t states() const {
    // order: pure tally, read after the run completes
    return states_.load(std::memory_order_relaxed);
  }
  std::uint64_t dead_ends() const {
    // order: pure tally, read after the run completes
    return dead_ends_.load(std::memory_order_relaxed);
  }

  /// Seconds since the sink was made: the run's wall time.
  double seconds() const { return clock_.seconds(); }

  const StoppingRules& rules() const { return rules_; }
  std::size_t workers() const { return workers_; }

  /// Called once by each LocalCounters made on this sink. A worker that
  /// believed itself alone beside another would flush too late for exact
  /// limits, so more of them than `workers` is a bug.
  void attach() {
    // order: pure tally, read only by the check below
    const std::size_t attached =
        attached_.fetch_add(1, std::memory_order_relaxed) + 1;
    GENTRIUS_DCHECK_LE(attached, workers_);
  }

 private:
  StoppingRules rules_;
  std::size_t workers_;
  std::atomic<std::size_t> attached_{0};
  std::atomic<std::uint64_t> stand_trees_{0};
  std::atomic<std::uint64_t> states_{0};
  std::atomic<std::uint64_t> dead_ends_{0};
  std::atomic<bool> stop_{false};
  std::atomic<int> reason_{-1};
  std::atomic<StopWaker*> waker_{nullptr};
  support::Stopwatch clock_;  // lint:allow(wall-clock) -- stopping rule 3
};

/// Per-thread accumulator. Publishes each kind of count to the sink every
/// `batch` units of it, and a worker alone on its sink also at the unit
/// that reaches a tree or state limit; every such flush evaluates the time
/// rule. Not thread-safe by design: each worker owns exactly one instance.
class LocalCounters {
 public:
  LocalCounters(CounterSink& sink, std::uint32_t tree_batch,
                std::uint32_t state_batch, std::uint32_t dead_end_batch)
      : sink_(&sink),
        alone_(sink.workers() == 1),
        batch_{std::max<std::uint32_t>(state_batch, 1),
               std::max<std::uint32_t>(tree_batch, 1),
               std::max<std::uint32_t>(dead_end_batch, 1)} {
    sink.attach();
    for (const Kind k : {kState, kTree, kDeadEnd}) flush_at_[k] = next_flush(k);
  }

  void count_stand_tree() { count(kTree); }
  void count_state() { count(kState); }
  void count_dead_end() { count(kDeadEnd); }

  /// Counts a run of units, in this order: for each entry m of `segments`,
  /// `lead` states, then m (state, stand tree) pairs, or one dead end when
  /// m is 0. Equivalent to the per-unit calls with a stop check before every
  /// unit but the first; returns false when such a check finds a stop.
  ///
  /// Units are added to the pending counts together up to the next unit
  /// that flushes, which is counted on its own, so the sink totals,
  /// flush_count() and counted() advance exactly as per-unit calls would.
  /// A worker beside others may see another one's stop only at its next
  /// flush, which stays within the batch.
  bool count_run(std::uint32_t lead, std::span<const std::uint32_t> segments) {
    Walk w;
    w.room = room();
    for (const std::uint32_t m : segments) {
      for (std::uint32_t l = 0; l < lead; ++l)
        if (!walk_unit(w, kState)) return false;
      if (m == 0 && !walk_unit(w, kDeadEnd)) return false;
      for (std::uint64_t left = m; left > 0;) {
        if (!settle(w)) return false;
        const std::uint64_t j = std::min(
            {left, w.room.n[kState] - w.run.n[kState],
             w.room.n[kTree] - w.run.n[kTree]});
        if (j > 0) {
          w.run.n[kState] += j;
          w.run.n[kTree] += j;
          w.first = false;
          left -= j;
        } else {
          if (!walk_unit(w, kState) || !walk_unit(w, kTree)) return false;
          --left;
        }
      }
    }
    add_pending(w.run);
    return true;
  }

  /// Publishes everything accumulated so far (end of the run). Reads no
  /// clock: a run that has done all its work is complete.
  void flush_all() {
    for (const Kind k : {kState, kTree, kDeadEnd})
      if (pending_[k] > 0) publish(k);
  }

  /// Number of flushes so far (the contention-model input of the
  /// counter-batching ablation).
  std::uint64_t flush_count() const { return flushes_; }

  /// Stand trees, states and dead ends counted so far, published or not
  /// (the simulator charges one unit of virtual work per count).
  std::uint64_t counted() const { return counted_; }

 private:
  enum Kind : std::uint8_t { kState, kTree, kDeadEnd };

  /// Units of each kind.
  struct Run {
    std::uint64_t n[3] = {0, 0, 0};
  };

  /// count_run's progress: the units each kind may still merge before its
  /// next flush, the run merged so far, whether no unit has been counted
  /// yet, and whether the last unit flushed.
  struct Walk {
    Run room;
    Run run;
    bool first = true;
    bool flushed = false;
  };

  // Hot path: a pending count stays below its flush point (the increment
  // flushes exactly at it).
  void count(Kind k) {
    ++counted_;
    if (++pending_[k] >= flush_at_[k]) {
      publish(k);
      sink_->check_time();
    }
  }

  /// The pending count of kind `k` at which its next flush falls: its
  /// batch, or, for a worker alone on its sink, the unit that reaches the
  /// kind's limit when that comes first.
  std::uint64_t next_flush(Kind k) const {
    if (!alone_ || k == kDeadEnd) return batch_[k];
    const StoppingRules& rules = sink_->rules();
    const bool states = k == kState;
    const std::uint64_t total = states ? sink_->states() : sink_->stand_trees();
    const std::uint64_t limit =
        states ? rules.max_states : rules.max_stand_trees;
    return total < limit ? std::min<std::uint64_t>(batch_[k], limit - total)
                         : 1;
  }

  Run room() const {
    Run r;
    for (const Kind k : {kState, kTree, kDeadEnd})
      r.n[k] = flush_at_[k] - 1 - pending_[k];
    return r;
  }

  /// After a unit that flushed: the check before the next unit, and the
  /// room left behind it.
  bool settle(Walk& w) {
    if (!w.flushed) return true;
    if (sink_->stop_requested()) return false;
    w.flushed = false;
    w.room = room();
    return true;
  }

  /// One unit of a run: merged when it does not flush, else counted on its
  /// own after the run so far.
  bool walk_unit(Walk& w, Kind k) {
    if (!settle(w)) return false;
    if (w.run.n[k] < w.room.n[k]) {
      ++w.run.n[k];
      w.first = false;
      return true;
    }
    add_pending(w.run);
    w.run = Run{};
    if (!w.first && sink_->stop_requested()) return false;
    w.first = false;
    w.flushed = true;
    count(k);
    return true;
  }

  /// Adds a run that holds no flush to the pending counts.
  void add_pending(const Run& run) {
    for (const Kind k : {kState, kTree, kDeadEnd}) {
      counted_ += run.n[k];
      pending_[k] += run.n[k];
      GENTRIUS_DCHECK_LT(pending_[k], flush_at_[k]);
    }
  }

  // A flush always publishes a non-zero delta — publishing zero would still
  // pay an atomic RMW and could spuriously trip a stopping-rule comparison.
  void publish(Kind k) {
    GENTRIUS_DCHECK_GT(pending_[k], 0u);
    GENTRIUS_DCHECK_LE(pending_[k], flush_at_[k]);
    if (k == kState)
      sink_->add_states(pending_[k]);
    else if (k == kTree)
      sink_->add_stand_trees(pending_[k]);
    else
      sink_->add_dead_ends(pending_[k]);
    pending_[k] = 0;
    ++flushes_;
    flush_at_[k] = next_flush(k);
  }

  CounterSink* sink_;
  bool alone_;
  std::uint32_t batch_[3];
  std::uint64_t pending_[3] = {0, 0, 0};
  std::uint64_t flush_at_[3] = {0, 0, 0};
  std::uint64_t flushes_ = 0;
  std::uint64_t counted_ = 0;
};

}  // namespace gentrius::core
