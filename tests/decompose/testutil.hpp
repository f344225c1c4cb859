// Shared helpers for the decomposition test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "decompose/components.hpp"
#include "decompose/sharded.hpp"
#include "gentrius/options.hpp"
#include "oracle/brute_force.hpp"

namespace gentrius::decompose_test {

// The differential harness sweeps hundreds of random instances; sanitizer
// builds (ASan/TSan presets define GENTRIUS_SANITIZED_BUILD) run a reduced
// seed set to keep the suite fast under instrumentation.
#if defined(GENTRIUS_SANITIZED_BUILD)
inline constexpr std::uint64_t kProductLawSeeds = 40;
#else
inline constexpr std::uint64_t kProductLawSeeds = 200;
#endif

/// Shard execution on `backend`, `n_threads` workers per shard.
inline decompose::ShardRunOptions on_backend(decompose::ShardBackend backend,
                                             std::size_t n_threads) {
  decompose::ShardRunOptions run;
  run.backend = backend;
  run.n_threads = n_threads;
  return run;
}

inline std::vector<std::string> sorted_trees(core::Result& r) {
  std::sort(r.trees.begin(), r.trees.end());
  return std::move(r.trees);
}

/// Closed-form interleaving count: the number of unrooted binary trees on
/// the whole universe displaying one fixed tree per component,
///   M = (2n-5)!! / prod_i (2n_i-5)!!
/// (shape-independence is guaranteed only when at most one component has
/// >= 6 taxa, as in every instance this is applied to; DESIGN.md
/// "Decomposition"). Stepwise division is
/// exact: after dividing by any subset of the denominators the remainder of
/// the product is still an integer multiple.
inline std::uint64_t closed_form_interleavings(
    const decompose::ComponentSplit& split) {
  std::size_t total = 0;
  for (const auto& comp : split.components) total += comp.taxa.size();
  std::uint64_t m = oracle::tree_space_size(total);
  for (const auto& comp : split.components)
    m /= oracle::tree_space_size(comp.taxa.size());
  return m;
}

}  // namespace gentrius::decompose_test
