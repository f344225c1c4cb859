// Sequential Gentrius: the baseline the paper parallelizes.
#pragma once

#include "gentrius/enumerator.hpp"
#include "gentrius/options.hpp"
#include "gentrius/problem.hpp"

namespace gentrius::core {

/// Runs sequential Gentrius to completion or until a stopping rule fires.
/// Its one worker flushes its counters at the paper's batches and at the
/// unit that reaches a tree or state limit, so the limits are exact,
/// matching the original implementation's behaviour.
Result run_serial(const Problem& problem, const Options& options);

/// Convenience overload: builds the Problem from raw constraint trees.
Result run_serial(const std::vector<phylo::Tree>& constraints,
                  const Options& options);

}  // namespace gentrius::core
