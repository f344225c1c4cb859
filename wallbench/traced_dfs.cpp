#include "traced_dfs.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "gentrius/terrace.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace wallbench {

namespace {

using namespace gentrius;
using Clock = std::chrono::steady_clock;
using core::EdgeId;
using core::TaxonId;

class Dfs {
 public:
  Dfs(const core::Problem& problem, const core::Options& options)
      : problem_(problem),
        options_(options),
        terrace_(problem, options.incremental_mappings) {
    // The static insertion order exactly as core::Enumerator derives it.
    if (!options.dynamic_taxon_order || !options.insertion_order.empty()) {
      if (!options.insertion_order.empty()) {
        order_ = options.insertion_order;
        auto sorted = order_;
        std::sort(sorted.begin(), sorted.end());
        if (sorted != problem.missing_taxa)
          throw support::InvalidInput(
              "insertion_order must be a permutation of the missing taxa");
      } else {
        order_ = problem.missing_taxa;
        if (options.shuffle_seed) {
          support::Rng rng(*options.shuffle_seed);
          rng.shuffle(order_);
        }
      }
    }
  }

  DfsProfile run() {
    const auto start = Clock::now();
    if (terrace_.initial_state_consistent()) search();
    prof_.total_s = seconds(Clock::now() - start);
    // Each timed call also carries the part of its two clock reads that
    // falls inside the interval; on flood (a few hundred ns per call) that
    // alone was a quarter of the layer time, so it is taken back out.
    const double read = clock_read_s();
    prof_.select_s = seconds(select_time_) -
                     read * static_cast<double>(prof_.select_calls);
    prof_.surgery_s = seconds(surgery_time_) -
                      read * static_cast<double>(prof_.surgery_calls);
    prof_.selection = terrace_.selection_stats();
    return prof_;
  }

 private:
  static double seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  /// Median length of an empty timed interval: what a clock-read pair adds
  /// to every measured call.
  static double clock_read_s() {
    std::vector<double> samples(1001);
    for (double& v : samples) {
      const auto t0 = Clock::now();
      v = seconds(Clock::now() - t0);
    }
    std::nth_element(samples.begin(), samples.begin() + 500, samples.end());
    return samples[500];
  }

  core::Terrace::Choice choose(std::vector<EdgeId>& branches) {
    const auto t0 = Clock::now();
    core::Terrace::Choice c;
    if (order_.empty()) {
      c = terrace_.choose_dynamic(branches, options_.dynamic_variant);
    } else if (terrace_.remaining_count() == 0) {
      branches.clear();
      c.complete = true;
    } else {
      const std::size_t index =
          problem_.missing_count() - terrace_.remaining_count();
      c = terrace_.choose_static(order_[index], branches);
    }
    select_time_ += Clock::now() - t0;
    ++prof_.select_calls;
    return c;
  }

  phylo::InsertRecord insert(TaxonId x, EdgeId e) {
    const auto t0 = Clock::now();
    const phylo::InsertRecord rec = terrace_.insert(x, e);
    surgery_time_ += Clock::now() - t0;
    ++prof_.surgery_calls;
    ++prof_.states;
    return rec;
  }

  void remove(const phylo::InsertRecord& rec) {
    const auto t0 = Clock::now();
    terrace_.remove(rec);
    surgery_time_ += Clock::now() - t0;
    ++prof_.surgery_calls;
  }

  /// Counts a terminal choice; true when the search continues below it.
  bool expand(const core::Terrace::Choice& c) {
    if (c.complete) {
      ++prof_.trees;
      return false;
    }
    if (c.dead_end) {
      ++prof_.dead_ends;
      return false;
    }
    return true;
  }

  void search() {
    // Forced prefix: single-branch insertions are permanent states.
    branches_.emplace_back();
    for (;;) {
      const auto c = choose(branches_[0]);
      if (!expand(c)) return;
      if (branches_[0].size() >= 2) {
        explore(0, c.taxon);
        return;
      }
      insert(c.taxon, branches_[0][0]);
    }
  }

  /// Tries every branch in branches_[depth] for `taxon`, recursively.
  void explore(std::size_t depth, TaxonId taxon) {
    if (branches_.size() <= depth + 1) branches_.emplace_back();
    for (std::size_t i = 0; i < branches_[depth].size(); ++i) {
      const phylo::InsertRecord rec = insert(taxon, branches_[depth][i]);
      const auto c = choose(branches_[depth + 1]);
      if (expand(c)) explore(depth + 1, c.taxon);
      remove(rec);
    }
  }

  const core::Problem& problem_;
  const core::Options& options_;
  core::Terrace terrace_;
  std::vector<TaxonId> order_;  // empty: dynamic order
  std::vector<std::vector<EdgeId>> branches_;  // per search depth
  Clock::duration select_time_{};
  Clock::duration surgery_time_{};
  DfsProfile prof_;
};

}  // namespace

DfsProfile traced_dfs(const gentrius::core::Problem& problem,
                      const gentrius::core::Options& options) {
  return Dfs(problem, options).run();
}

}  // namespace wallbench
