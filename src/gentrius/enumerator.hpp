// Iterative branch-and-bound enumerator with task-splitting hooks.
//
// This is Algorithm 1 of the paper turned into an explicit-stack state
// machine so that the same engine can be driven three ways:
//   * serially (loop step() until Exhausted),
//   * by real threads (src/parallel): each thread owns one Enumerator,
//   * by the virtual-time scheduler (src/vthread): one Enumerator per
//     simulated worker, stepped in virtual-clock order.
//
// One step() call performs one unit of work: either it expands the current
// state (selects the next taxon, possibly offers half of its admissible
// branches to the task sink, and applies one insertion — one new
// intermediate state), or it consumes a terminal event (stand tree or dead
// end) and backtracks. The exceptions are the last two levels of a run that
// does not collect trees (docs/ALGORITHM.md §2), where no frame is ever
// offered (the paper's offer floor is 3 open taxa). Each branch of the last
// taxon would complete the agile tree, so one step counts the last taxon
// from its admissible count alone, as states and stand trees, without
// inserting it. A two-taxon frame whose taxa cannot interact in a
// constraint — the second taxon's count after each branch of the first is
// known in closed form — is counted in one step as a whole: per branch, one
// state, then that many (state, stand tree) pairs, or a dead end. Such a
// step then backtracks (LocalCounters::counted() tells drivers how many
// units it covered). Counting follows the paper exactly: every insertion,
// made or counted in closed form, increments the intermediate-state
// counter; prefix and task replays are *uncounted* re-executions of
// already-counted insertions, so serial and parallel totals agree.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gentrius/counters.hpp"
#include "gentrius/options.hpp"
#include "gentrius/terrace.hpp"

namespace gentrius::core {

/// A unit of stealable work (paper §III-A): the path from the initial-split
/// state I0 to the state where the task was created, plus the next taxon
/// and the subset of its admissible branches delegated to the thief.
struct Task {
  std::vector<std::pair<TaxonId, EdgeId>> path;
  TaxonId next_taxon = kNoTaxon;
  std::vector<EdgeId> branches;
};

/// Where offered tasks go. Implemented by the drivers (bounded queue for
/// real threads, simulated queue for virtual time). try_push returns false
/// when the queue is full — the task is untouched and the enumerator keeps
/// the whole branch set. On success the sink SWAPS the task's vectors into
/// its own slot storage (contents unspecified afterwards): the producer
/// stages the task outside any lock, the hand-off itself is O(1), and the
/// vectors coming back keep the slot's accumulated capacity, so the
/// steady-state offer path performs no allocation on either side.
class TaskSink {
 public:
  virtual ~TaskSink() = default;
  virtual bool try_push(Task& task) = 0;
};

class Enumerator {
 public:
  Enumerator(const Problem& problem, const Options& options, CounterSink& sink);

  // ---- phase 1: deterministic forced prefix --------------------------------

  struct Prefix {
    enum class Outcome {
      kSplit,      ///< reached state I0: split_taxon has >= 2 admissible branches
      kComplete,   ///< the whole enumeration was forced; stand size 1
      kDeadEnd,    ///< a forced state had a zero-branch taxon; stand size 0
      kEmpty,      ///< initial agile tree inconsistent with a constraint
    };
    Outcome outcome = Outcome::kEmpty;
    TaxonId split_taxon = kNoTaxon;
    std::vector<EdgeId> branches;
    std::size_t length = 0;
  };

  /// Executes the forced prefix up to the initial split state I0. Exactly
  /// one participant of a run passes count=true (the others replay the same
  /// deterministic insertions without counting).
  const Prefix& run_prefix(bool count);

  // ---- phase 2: exploration -------------------------------------------------

  /// Explore `branches` of `taxon` from the current state (used for the
  /// initial-split partition and by the serial driver).
  void begin_branches(TaxonId taxon, std::vector<EdgeId> branches);

  /// Adopt a stolen task: replays its path from I0 (uncounted) and sets up
  /// the delegated branch subset. Returns the number of replayed
  /// insertions (drivers charge virtual time for them).
  std::size_t adopt_task(const Task& task);

  /// Undo everything back to I0 after the current work is exhausted.
  /// Returns the number of removals performed.
  std::size_t rewind_to_split();

  enum class Step : std::uint8_t {
    kWorked,     ///< one unit of progress made
    kExhausted,  ///< current branch assignment fully explored
    kStopped,    ///< a stopping rule fired somewhere
  };
  Step step();

  void set_task_sink(TaskSink* sink) noexcept { task_sink_ = sink; }

  LocalCounters& counters() noexcept { return counters_; }
  const std::vector<std::string>& collected_trees() const noexcept {
    return collected_;
  }
  std::vector<std::string>& collected_trees() noexcept { return collected_; }
  const Terrace& terrace() const noexcept { return terrace_; }
  std::uint64_t tasks_offered() const noexcept { return tasks_offered_; }

 private:
  struct Frame {
    TaxonId taxon = kNoTaxon;
    std::vector<EdgeId> branches;
    std::size_t next = 0;
    InsertRecord rec;
    bool applied = false;
  };

  /// Next-taxon selection honoring the configured heuristics.
  Terrace::Choice choose(std::vector<EdgeId>& branches);
  void maybe_offer_task(Frame& frame);
  void apply_branch(Frame& frame, bool count);
  /// Counts a run of units (LocalCounters::count_run) and backtracks.
  Step count_run(std::uint32_t lead, std::span<const std::uint32_t> segments);
  void record_stand_tree();

  const Problem* problem_;
  const Options* options_;
  Terrace terrace_;
  LocalCounters counters_;
  CounterSink* sink_;
  TaskSink* task_sink_ = nullptr;

  std::vector<TaxonId> static_order_;  // used when dynamic order is off

  Prefix prefix_;
  bool prefix_done_ = false;
  std::vector<InsertRecord> replay_records_;  // task-path insertions

  // Exploration stack; frames_ never shrinks so branch vectors reuse their
  // capacity across millions of states.
  std::vector<Frame> frames_;
  std::size_t depth_ = 0;
  enum class Mode : std::uint8_t { kChoose, kBacktrack, kDone };
  Mode mode_ = Mode::kDone;

  std::vector<std::pair<TaxonId, EdgeId>> path_;  // insertions since I0
  Task offer_task_;  // pooled offer: vectors keep their capacity across offers
  std::vector<EdgeId> branch_scratch_;
  std::vector<std::uint32_t> pair_counts_;  // closed-form two-taxon frame
  std::vector<std::string> collected_;
  std::uint64_t tasks_offered_ = 0;
};

}  // namespace gentrius::core
