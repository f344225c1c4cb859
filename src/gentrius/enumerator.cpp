#include "gentrius/enumerator.hpp"

#include <algorithm>

#include "phylo/newick.hpp"
#include "phylo/topology.hpp"
#include "support/check.hpp"
#include "support/error.hpp"
#include "support/invariant.hpp"
#include "support/rng.hpp"

namespace gentrius::core {

namespace {

/// Paper §III-A offer floor: a frame offers work only while at least this
/// many taxa remain open, its own included; below it, finishing the subtree
/// locally is cheaper than the stealing round-trip. So no frame of the last
/// two levels is ever offered, which lets a counting run count them in
/// closed form (step()).
constexpr std::size_t kOfferMinRemaining = 3;
static_assert(kOfferMinRemaining > 2);

}  // namespace

Enumerator::Enumerator(const Problem& problem, const Options& options,
                       CounterSink& sink)
    : problem_(&problem),
      options_(&options),
      terrace_(problem, options.incremental_mappings),
      counters_(sink, options.tree_flush_batch, options.state_flush_batch,
                options.dead_end_flush_batch),
      sink_(&sink) {
  if (!options.dynamic_taxon_order || !options.insertion_order.empty()) {
    if (!options.insertion_order.empty()) {
      static_order_ = options.insertion_order;
      auto sorted = static_order_;
      std::sort(sorted.begin(), sorted.end());
      if (sorted != problem.missing_taxa)
        throw support::InvalidInput(
            "insertion_order must be a permutation of the missing taxa");
    } else {
      static_order_ = problem.missing_taxa;
      if (options.shuffle_seed) {
        support::Rng rng(*options.shuffle_seed);
        rng.shuffle(static_order_);
      }
    }
  }
}

Terrace::Choice Enumerator::choose(std::vector<EdgeId>& branches) {
  if (static_order_.empty())
    return terrace_.choose_dynamic(branches, options_->dynamic_variant);
  if (terrace_.remaining_count() == 0) {
    branches.clear();
    Terrace::Choice c;
    c.complete = true;
    return c;
  }
  const std::size_t index =
      problem_->missing_count() - terrace_.remaining_count();
  return terrace_.choose_static(static_order_[index], branches);
}

const Enumerator::Prefix& Enumerator::run_prefix(bool count) {
  if (prefix_done_) return prefix_;
  prefix_done_ = true;

  if (!terrace_.initial_state_consistent()) {
    prefix_.outcome = Prefix::Outcome::kEmpty;
    return prefix_;
  }
  for (;;) {
    const auto choice = choose(branch_scratch_);
    if (choice.complete) {
      if (count) record_stand_tree();
      prefix_.outcome = Prefix::Outcome::kComplete;
      return prefix_;
    }
    if (choice.dead_end) {
      if (count) counters_.count_dead_end();
      prefix_.outcome = Prefix::Outcome::kDeadEnd;
      return prefix_;
    }
    if (branch_scratch_.size() >= 2) {
      prefix_.outcome = Prefix::Outcome::kSplit;
      prefix_.split_taxon = choice.taxon;
      prefix_.branches = branch_scratch_;
      return prefix_;
    }
    // Exactly one admissible branch: a forced, permanent insertion. This is
    // a regular intermediate state of the search.
    terrace_.insert(choice.taxon, branch_scratch_[0]);
    if (count) counters_.count_state();
    ++prefix_.length;
  }
}

void Enumerator::begin_branches(TaxonId taxon, std::vector<EdgeId> branches) {
  GENTRIUS_CHECK(prefix_done_);
  if (depth_ == frames_.size()) frames_.emplace_back();
  Frame& f = frames_[depth_++];
  f.taxon = taxon;
  f.branches = std::move(branches);
  f.next = 0;
  f.applied = false;
  mode_ = Mode::kBacktrack;  // the first step() applies branch 0
}

std::size_t Enumerator::adopt_task(const Task& task) {
  GENTRIUS_DCHECK(depth_ == 0 && replay_records_.empty());
  for (const auto& [taxon, edge] : task.path) {
    replay_records_.push_back(terrace_.insert(taxon, edge));
    path_.emplace_back(taxon, edge);
  }
  begin_branches(task.next_taxon, task.branches);
  return task.path.size();
}

std::size_t Enumerator::rewind_to_split() {
  std::size_t removals = 0;
  while (depth_ > 0) {
    Frame& f = frames_[depth_ - 1];
    if (f.applied) {
      terrace_.remove(f.rec);
      f.applied = false;
      path_.pop_back();
      ++removals;
    }
    --depth_;
  }
  for (auto it = replay_records_.rbegin(); it != replay_records_.rend(); ++it) {
    terrace_.remove(*it);
    path_.pop_back();
    ++removals;
  }
  replay_records_.clear();
  GENTRIUS_DCHECK(path_.empty());  // back at I0: no residual insertions
  mode_ = Mode::kDone;
  return removals;
}

void Enumerator::record_stand_tree() {
  counters_.count_stand_tree();
  if (options_->collect_trees && collected_.size() < options_->collect_limit) {
    if (options_->tree_names) {
      collected_.push_back(
          phylo::canonical_newick(terrace_.agile(), *options_->tree_names));
    } else {
      collected_.push_back(phylo::canonical_encoding(terrace_.agile()));
    }
  }
}

void Enumerator::maybe_offer_task(Frame& f) {
  if (task_sink_ == nullptr) return;
  if (terrace_.remaining_count() < kOfferMinRemaining) return;
  if (f.branches.size() < 2) return;
  GENTRIUS_DCHECK(f.next == 0);  // frame freshly set up, nothing consumed yet
  // The paper's split: the first half of the branch set goes to the thief.
  const std::size_t half = f.branches.size() / 2;
  // Stage the offer in the pooled task outside any lock; an accepting sink
  // swaps the vectors for its slot's, so capacity keeps circulating between
  // the pool and the queue and steady-state offers never reallocate.
  offer_task_.path = path_;
  offer_task_.next_taxon = f.taxon;
  offer_task_.branches.assign(
      f.branches.begin(),
      f.branches.begin() + static_cast<std::ptrdiff_t>(half));
  if (task_sink_->try_push(offer_task_)) {
    // The delegated first half is skipped by advancing the cursor — no
    // erase(), the vector is left untouched.
    f.next = half;
    ++tasks_offered_;
  }
}

void Enumerator::apply_branch(Frame& f, bool count) {
  GENTRIUS_DCHECK_LT(f.next, f.branches.size());
  const EdgeId e = f.branches[f.next++];
  f.rec = terrace_.insert(f.taxon, e);
  f.applied = true;
  path_.emplace_back(f.taxon, e);
  if (count) counters_.count_state();
  mode_ = Mode::kChoose;
}

Enumerator::Step Enumerator::count_run(std::uint32_t lead,
                                       std::span<const std::uint32_t> segments) {
  // Counts and stop checks run in the order the per-branch steps would
  // take, with no check before the first unit, so exact stopping rules fire
  // at the same totals.
  mode_ = Mode::kBacktrack;
  return counters_.count_run(lead, segments) ? Step::kWorked : Step::kStopped;
}

Enumerator::Step Enumerator::step() {
  GENTRIUS_DCHECK_LE(depth_, frames_.size());
  if (mode_ == Mode::kDone) return Step::kExhausted;
  if (sink_->stop_requested()) return Step::kStopped;

  if (mode_ == Mode::kChoose) {
    // A counting run counts its last two levels in closed form: no frame
    // there is offered (kOfferMinRemaining).
    const bool closed_form = !options_->collect_trees;
    const std::size_t open = terrace_.remaining_count();
    if (open == 1 && closed_form) {
      // Each admissible branch of the last taxon completes the agile tree,
      // so only its count is needed (one state and one stand tree per
      // branch, docs/ALGORITHM.md §2), and 0 is one dead end.
      const auto count = static_cast<std::uint32_t>(
          terrace_.count_branches(terrace_.first_remaining()));
      return count_run(/*lead=*/0, {&count, 1});
    }
    const auto choice = choose(branch_scratch_);
    if (choice.complete) {
      record_stand_tree();
      mode_ = Mode::kBacktrack;
      return Step::kWorked;
    }
    if (choice.dead_end) {
      counters_.count_dead_end();
      mode_ = Mode::kBacktrack;
      return Step::kWorked;
    }
    if (depth_ == frames_.size()) frames_.emplace_back();
    Frame& f = frames_[depth_++];
    f.taxon = choice.taxon;
    f.branches.swap(branch_scratch_);
    f.next = 0;
    f.applied = false;
    if (f.branches.size() >= 2) maybe_offer_task(f);
    if (open == 2 && closed_form &&
        terrace_.second_taxon_counts(f.taxon, f.branches, pair_counts_)) {
      --depth_;  // nothing gets inserted, so the frame is never applied
      return count_run(/*lead=*/1, pair_counts_);
    }
    apply_branch(f, /*count=*/true);
    return Step::kWorked;
  }

  // Backtrack: undo the top insertion, then either try its next sibling
  // branch or pop the frame and continue upward.
  while (depth_ > 0) {
    Frame& f = frames_[depth_ - 1];
    if (f.applied) {
      terrace_.remove(f.rec);
      f.applied = false;
      path_.pop_back();
    }
    if (f.next < f.branches.size()) {
      apply_branch(f, /*count=*/true);
      return Step::kWorked;
    }
    --depth_;
  }
  mode_ = Mode::kDone;
  return Step::kExhausted;
}

}  // namespace gentrius::core
