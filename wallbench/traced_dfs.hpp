// A traced depth-first search over one instance, driven from outside the
// engine through core::Terrace's public interface (choose_dynamic /
// choose_static, insert, remove).
//
// It visits states in core::run_serial's order and counts them by its
// rules — forced prefix insertions are states, a complete
// agile tree is a stand tree, a zero-branch taxon is a dead end — so its
// counts must equal core::run_serial's exactly. Every selection and every
// insert/remove is timed, which splits the engine's time into taxon
// selection (candidate counting plus mapping rebuilds) and tree surgery.
#pragma once

#include <cstdint>

#include "gentrius/options.hpp"
#include "gentrius/problem.hpp"

namespace wallbench {

struct DfsProfile {
  std::uint64_t states = 0;
  std::uint64_t trees = 0;
  std::uint64_t dead_ends = 0;
  std::uint64_t select_calls = 0;
  std::uint64_t surgery_calls = 0;  ///< inserts + removes
  double select_s = 0.0;
  double surgery_s = 0.0;
  double total_s = 0.0;  ///< whole search, clock reads included
  gentrius::core::SelectionStats selection;
};

/// Runs the search to completion (stopping rules are not applied).
DfsProfile traced_dfs(const gentrius::core::Problem& problem,
                      const gentrius::core::Options& options);

}  // namespace wallbench
