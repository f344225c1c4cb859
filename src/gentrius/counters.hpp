// Shared progress counters with batched publication (paper §III-B).
//
// The sequential Gentrius updates three global counters (stand trees,
// intermediate states, dead ends) at every state and checks the stopping
// rules. The parallel version keeps them in std::atomic variables; to avoid
// cache-line ping-pong each thread accumulates locally and publishes every
// 2^10 / 2^13 / 2^10 increments. A consequence the paper documents is that
// parallel runs can overshoot the limits by up to (threads * batch).
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
// frame without inserting its taxa publishes the frame's units together,
// one sink add per counter kind, wherever no stopping-rule check can fall
// among them. That stays exact: a limit is tested and the clock read only
// at flushes, so a merged run that holds no clock read and reaches no limit
// changes nothing a per-unit count would have observed. At batch 1 (serial
// runs) every unit is a flush, and the sink's totals say exactly where the
// next limit is; at the pool batches every flush reads the clock, so a run
// ends before the unit that flushes.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

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
  /// `concurrent`: several threads publish at once (the thread pool with
  /// two or more workers), so a total read between flushes is only a lower
  /// bound and LocalCounters::count_run never merges flushes.
  explicit CounterSink(const StoppingRules& rules, bool concurrent = false)
      : rules_(rules), concurrent_(concurrent) {}

  void add_stand_trees(std::uint64_t d) {
    // order: pure tally — fetch_add is atomic on its own; cross-thread
    // publication happens at thread join, and the threshold test below
    // only needs this thread's own returned value
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
    // order: pure tally; totals are read after workers join
    dead_ends_.fetch_add(d, std::memory_order_relaxed);
  }

  /// Stopping rule 3. Called by LocalCounters at its configured flush
  /// period; cheap relative to batch work. Wall-clock by definition (the
  /// paper's 168 h limit); equivalence tests disable this rule, so it
  /// cannot perturb serial-vs-parallel comparisons.
  void check_time() {
    if (clock_.seconds() >= rules_.max_seconds)
      request_stop(StopReason::kTimeLimit);
  }

  /// Registers (or clears, with nullptr) the scheduler to unpark when a
  /// stopping rule fires. Register before workers may block on the
  /// scheduler and clear only after every worker has been joined; the
  /// pointee must stay alive in between.
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
    // joining the pool; both order the reason_ write before this load
    const int r = reason_.load(std::memory_order_relaxed);
    return r < 0 ? StopReason::kCompleted : static_cast<StopReason>(r);
  }

  std::uint64_t stand_trees() const {
    // order: pure tally, read after workers join
    return stand_trees_.load(std::memory_order_relaxed);
  }
  std::uint64_t states() const {
    // order: pure tally, read after workers join
    return states_.load(std::memory_order_relaxed);
  }
  std::uint64_t dead_ends() const {
    // order: pure tally, read after workers join
    return dead_ends_.load(std::memory_order_relaxed);
  }

  double seconds() const { return clock_.seconds(); }

  const StoppingRules& rules() const { return rules_; }
  bool concurrent() const { return concurrent_; }

 private:
  StoppingRules rules_;
  bool concurrent_;
  std::atomic<std::uint64_t> stand_trees_{0};
  std::atomic<std::uint64_t> states_{0};
  std::atomic<std::uint64_t> dead_ends_{0};
  std::atomic<bool> stop_{false};
  std::atomic<int> reason_{-1};
  std::atomic<StopWaker*> waker_{nullptr};
  support::Stopwatch clock_;  // lint:allow(wall-clock) -- stopping rule 3
};

/// Per-thread accumulator. Publishes to the sink in batches; every
/// `time_check_period`-th flush also evaluates the time rule (period 1, the
/// default, preserves the documented every-flush granularity; a larger
/// period amortizes the clock syscall over K flushes). Not thread-safe by
/// design: each worker owns exactly one instance.
class LocalCounters {
 public:
  LocalCounters(CounterSink& sink, std::uint32_t tree_batch,
                std::uint32_t state_batch, std::uint32_t dead_end_batch,
                std::uint32_t time_check_period = 1)
      : sink_(&sink),
        tree_batch_(tree_batch ? tree_batch : 1),
        state_batch_(state_batch ? state_batch : 1),
        dead_end_batch_(dead_end_batch ? dead_end_batch : 1),
        time_check_period_(time_check_period ? time_check_period : 1) {}

  void count_stand_tree() {
    ++counted_;
    if (++trees_ >= tree_batch_) flush_trees();
  }

  void count_state() {
    ++counted_;
    if (++states_ >= state_batch_) flush_states();
  }

  void count_dead_end() {
    ++counted_;
    if (++dead_ends_ >= dead_end_batch_) flush_dead_ends();
  }

  /// Counts a run of units, in this order: for each entry m of `segments`,
  /// `lead` states, then m (state, stand tree) pairs, or one dead end when
  /// m is 0. Equivalent to the per-unit calls with a stop check before every
  /// unit but the first; returns false when such a check finds a stop.
  ///
  /// Units are counted together while none of them needs a stopping-rule
  /// check: a unit that would flush at a batch above 1, read the clock, or
  /// reach a limit is counted on its own, and at batch 1 a concurrent
  /// sink's totals cannot say where a limit is, so there every unit is. The
  /// sink totals, flush_count() and counted() advance exactly as per-unit
  /// calls would. A concurrent run may see another thread's stop only at
  /// its next unit counted on its own, which stays within the batch.
  bool count_run(std::uint32_t lead, std::span<const std::uint32_t> segments) {
    Walk w;
    w.room = room();
    w.start = counted_;
    late_flushes_.clear();
    for (const std::uint32_t m : segments) {
      if (lead > 0) {
        w.step = position(w);
        for (std::uint32_t l = 0; l < lead; ++l)
          if (!walk_unit(w, kState)) return false;
        w.step = position(w);
      }
      if (m == 0 && !walk_unit(w, kDeadEnd)) return false;
      for (std::uint64_t left = m; left > 0;) {
        if (!settle(w)) return false;
        const std::uint64_t j = std::min(left, pairs_that_fit(w));
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
    count_merged(w.run);
    return true;
  }

  /// Publish everything accumulated so far (end of a task / of the run).
  void flush_all() {
    if (trees_) flush_trees();
    if (states_) flush_states();
    if (dead_ends_) flush_dead_ends();
  }

  /// Number of flushes so far (the contention-model input of the
  /// counter-batching ablation), as per-unit counting makes them: a merged
  /// run's one sink add per kind counts as the flushes it stands for.
  std::uint64_t flush_count() const { return flushes_; }

  /// Stand trees, states and dead ends counted so far, published or not
  /// (the simulator charges one unit of virtual work per count).
  std::uint64_t counted() const { return counted_; }

  /// The flushes of the last count_run's units counted on its own (every
  /// flush at the pool batches) that fall after the step a per-unit search
  /// would have started the run with, as (unit offset in the run of the
  /// per-unit step they fall in, flushes). Per-unit steps are: a segment's
  /// lead states, and its pairs or dead end. The simulator charges them
  /// where those steps would have, so its clock sums the same terms in the
  /// same order.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>>& late_flushes()
      const {
    return late_flushes_;
  }

 private:
  enum Kind : std::uint8_t { kState, kTree, kDeadEnd };

  /// Units of each kind counted, or to be counted, together.
  struct Run {
    std::uint64_t n[3] = {0, 0, 0};
  };

  /// How far a merged run may reach: per kind, the units before the next
  /// one that needs a check of its own, and the batch-1 flushes left before
  /// the next clock read.
  struct Room {
    Run units;
    std::uint64_t flushes = 0;
  };

  /// count_run's progress: the room, the run merged so far, whether no unit
  /// has been counted yet, whether the last unit was counted on its own,
  /// counted() when the run began and the offset in the run of the
  /// per-unit step it is in.
  struct Walk {
    Room room;
    Run run;
    bool first = true;
    bool alone = false;
    std::uint64_t start = 0;
    std::uint64_t step = 0;
  };

  /// Units of the run counted or merged so far.
  std::uint64_t position(const Walk& w) const {
    return counted_ - w.start + w.run.n[kState] + w.run.n[kTree] +
           w.run.n[kDeadEnd];
  }

  std::uint32_t batch(Kind k) const {
    return k == kState ? state_batch_ : k == kTree ? tree_batch_ : dead_end_batch_;
  }

  Room room() const {
    const StoppingRules& rules = sink_->rules();
    const auto kind = [&](Kind k, std::uint64_t pending, std::uint64_t total,
                          std::uint64_t limit) -> std::uint64_t {
      if (batch(k) > 1) return batch(k) - 1 - pending;
      if (sink_->concurrent()) return 0;
      return total + 1 < limit ? limit - total - 1 : 0;
    };
    Room r;
    r.units.n[kState] =
        kind(kState, states_, sink_->states(), rules.max_states);
    r.units.n[kTree] =
        kind(kTree, trees_, sink_->stand_trees(), rules.max_stand_trees);
    r.units.n[kDeadEnd] = kind(kDeadEnd, dead_ends_, 0,
                               std::numeric_limits<std::uint64_t>::max());
    r.flushes = time_check_period_ - 1 - flushes_since_time_check_;
    return r;
  }

  /// Flushes a run makes: one per unit of each kind at batch 1.
  std::uint64_t flushes_of(const Run& run) const {
    std::uint64_t f = 0;
    for (const Kind k : {kState, kTree, kDeadEnd})
      if (batch(k) == 1) f += run.n[k];
    return f;
  }

  bool fits(const Run& run, const Room& room) const {
    for (const Kind k : {kState, kTree, kDeadEnd})
      if (run.n[k] > room.units.n[k]) return false;
    return flushes_of(run) <= room.flushes;
  }

  /// Whole (state, tree) pairs the walk's run can still take.
  std::uint64_t pairs_that_fit(const Walk& w) const {
    std::uint64_t j = std::min(w.room.units.n[kState] - w.run.n[kState],
                               w.room.units.n[kTree] - w.run.n[kTree]);
    const std::uint64_t per_pair =
        (state_batch_ == 1 ? 1 : 0) + (tree_batch_ == 1 ? 1 : 0);
    if (per_pair > 0)
      j = std::min(j, (w.room.flushes - flushes_of(w.run)) / per_pair);
    return j;
  }

  /// After a unit counted on its own: the check before the next unit, and
  /// the room left behind it.
  bool settle(Walk& w) {
    if (!w.alone) return true;
    if (sink_->stop_requested()) return false;
    w.alone = false;
    w.room = room();
    return true;
  }

  /// One unit of a run: merged when it fits, else counted on its own after
  /// the run so far.
  bool walk_unit(Walk& w, Kind k) {
    if (!settle(w)) return false;
    Run next = w.run;
    ++next.n[k];
    if (fits(next, w.room)) {
      w.run = next;
      w.first = false;
      return true;
    }
    count_merged(w.run);
    w.run = Run{};
    if (!w.first && sink_->stop_requested()) return false;
    w.first = false;
    w.alone = true;
    const std::uint64_t flushes = flushes_;
    if (k == kState)
      count_state();
    else if (k == kTree)
      count_stand_tree();
    else
      count_dead_end();
    if (flushes_ > flushes && w.step > 0) {
      if (late_flushes_.empty() || late_flushes_.back().first != w.step)
        late_flushes_.emplace_back(w.step, 0);
      late_flushes_.back().second += flushes_ - flushes;
    }
    return true;
  }

  /// Counts a run that fits its room: one sink add per kind at batch 1,
  /// where each unit is a flush, the pending counts otherwise.
  void count_merged(const Run& run) {
    const std::uint64_t flushes = flushes_of(run);
    counted_ += run.n[kState] + run.n[kTree] + run.n[kDeadEnd];
    flushes_ += flushes;
    flushes_since_time_check_ += static_cast<std::uint32_t>(flushes);
    GENTRIUS_DCHECK_LT(flushes_since_time_check_, time_check_period_);
    if (run.n[kState] > 0) {
      if (state_batch_ == 1)
        sink_->add_states(run.n[kState]);
      else
        states_ += run.n[kState];
    }
    if (run.n[kTree] > 0) {
      if (tree_batch_ == 1)
        sink_->add_stand_trees(run.n[kTree]);
      else
        trees_ += run.n[kTree];
    }
    if (run.n[kDeadEnd] > 0) {
      if (dead_end_batch_ == 1)
        sink_->add_dead_ends(run.n[kDeadEnd]);
      else
        dead_ends_ += run.n[kDeadEnd];
    }
  }

  // Hot-path invariants: a pending local count never exceeds its batch (the
  // increment paths flush exactly at the threshold), and a flush always
  // publishes a non-zero delta — publishing zero would still pay an atomic
  // RMW and could spuriously trip a stopping-rule comparison.
  void flush_trees() {
    GENTRIUS_DCHECK_GT(trees_, 0u);
    GENTRIUS_DCHECK_LE(trees_, tree_batch_);
    sink_->add_stand_trees(trees_);
    trees_ = 0;
    ++flushes_;
    maybe_check_time();
  }
  void flush_states() {
    GENTRIUS_DCHECK_GT(states_, 0u);
    GENTRIUS_DCHECK_LE(states_, state_batch_);
    sink_->add_states(states_);
    states_ = 0;
    ++flushes_;
    maybe_check_time();
  }
  void flush_dead_ends() {
    GENTRIUS_DCHECK_GT(dead_ends_, 0u);
    GENTRIUS_DCHECK_LE(dead_ends_, dead_end_batch_);
    sink_->add_dead_ends(dead_ends_);
    dead_ends_ = 0;
    ++flushes_;
    maybe_check_time();
  }

  /// Evaluates the time rule on every time_check_period_-th flush. The
  /// three flush sites above used to pay one clock syscall each; with a
  /// period K only every K-th flush does. Counter totals, flush counts,
  /// and the batching ablation are untouched — only the clock-read cadence
  /// (and hence the time rule's granularity) changes.
  void maybe_check_time() {
    if (++flushes_since_time_check_ >= time_check_period_) {
      flushes_since_time_check_ = 0;
      sink_->check_time();
    }
  }

  CounterSink* sink_;
  std::uint32_t tree_batch_, state_batch_, dead_end_batch_;
  std::uint32_t time_check_period_;
  std::uint32_t flushes_since_time_check_ = 0;
  std::uint64_t trees_ = 0, states_ = 0, dead_ends_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t counted_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> late_flushes_;
};

}  // namespace gentrius::core
