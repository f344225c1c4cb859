// §V (future work) experiment: the cost of double-edge-mapping updates.
//
// The paper profiles its implementation with Valgrind and finds that
// updating the branch mappings after taxon insertions/removals consumes
// 15-30 % of total runtime, motivating a mapping-structure redesign as
// future work. This library implements both regimes:
//   incremental — constraints not containing the inserted taxon get an O(1)
//                 bucket update, and those containing it have the one
//                 common-subtree edge the taxon attaches to split in place
//                 (this library's redesign, docs/ALGORITHM.md §3),
//   recompute   — every active constraint's mapping is rebuilt per state
//                 (an upper bound on any per-state maintenance scheme).
// The difference isolates the mapping-maintenance share of runtime. It is
// largest on many-locus datasets, where most constraints are active at any
// state; the measured share bounds what the paper's redesign can save.
//
// Each regime is timed over several interleaved repetitions and the share
// is computed from the medians: single wall-clock runs on a shared host
// were observed to move the reported share by >5 percentage points run to
// run (docs/PERFORMANCE.md §4 post-mortem), drowning real changes.
// argv: [scale] [repetitions] (defaults 1.0 and 3).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "benchutil/corpus.hpp"
#include "gentrius/serial.hpp"
#include "support/rng.hpp"

namespace {

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gentrius;
  const double scale = benchutil::parse_scale(argc, argv);
  const int reps = argc > 2 ? std::max(1, std::atoi(argv[2])) : 3;

  core::Options incremental;
  incremental.stop.max_stand_trees = 300'000;
  incremental.stop.max_states = 3'000'000;
  core::Options recompute = incremental;
  recompute.incremental_mappings = false;

  std::printf("Mapping-update cost (paper §V: 15-30%% of runtime)\n\n");
  std::printf("%-22s %5s %8s %12s %12s %13s\n", "dataset", "loci", "states",
              "incremental", "recompute", "mapping share");

  support::Rng rng(171);
  std::size_t shown = 0;
  double share_sum = 0;
  for (std::uint64_t i = 0; shown < static_cast<std::size_t>(6 * scale) &&
                            i < 300; ++i) {
    datagen::SimulatedParams p;
    p.n_taxa = 60 + rng.below(61);
    p.n_loci = 12 + rng.below(9);  // many loci: most stay active per state
    p.missing_fraction = 0.40 + 0.15 * rng.uniform();
    p.seed = 171'000 + i;
    const auto ds = datagen::make_simulated(p);

    core::Result a;
    try {
      a = core::run_serial(ds.constraints, incremental);
    } catch (const support::Error&) {
      continue;
    }
    // Tree-limit runs are admissible too: serial stopping rules are exact,
    // so both modes perform the identical state sequence.
    if ((a.reason != core::StopReason::kCompleted &&
         a.reason != core::StopReason::kTreeLimit) ||
        a.intermediate_states < 15'000)
      continue;
    // Interleave the regimes so slow host phases hit both medians alike.
    std::vector<double> ta, tb;
    ta.push_back(a.seconds);
    for (int r = 0; r < reps; ++r) {
      const auto b = core::run_serial(ds.constraints, recompute);
      if (b.intermediate_states != a.intermediate_states) {
        std::printf("%-22s COUNT MISMATCH\n", ds.name.c_str());
        return 1;
      }
      tb.push_back(b.seconds);
      if (static_cast<int>(ta.size()) < reps)
        ta.push_back(core::run_serial(ds.constraints, incremental).seconds);
    }
    const double ma = median_of(ta);
    const double mb = median_of(tb);
    const double share = 100.0 * (mb - ma) / mb;
    std::printf("%-22s %5zu %8llu %11.3fs %11.3fs %12.1f%%\n",
                ds.name.c_str(), ds.constraints.size(),
                static_cast<unsigned long long>(a.intermediate_states),
                ma, mb, share);
    share_sum += share;
    ++shown;
  }
  if (shown)
    std::printf(
        "\nmean share of runtime the incremental scheme avoids: %.1f%%"
        " (medians of %d runs per regime)\n",
        share_sum / static_cast<double>(shown), reps);
  return 0;
}
