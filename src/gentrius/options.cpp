#include "gentrius/options.hpp"

#include "support/error.hpp"

namespace gentrius::core {

using support::InvalidInput;

void validate_options(const Options& options) {
  if (options.tree_flush_batch == 0 || options.state_flush_batch == 0 ||
      options.dead_end_flush_batch == 0)
    throw InvalidInput(
        "Options: counter flush batches must be >= 1 (a batch of 0 would "
        "never publish local counts, so no stopping rule could fire)");

  if (!options.insertion_order.empty() && options.shuffle_seed)
    throw InvalidInput(
        "Options: insertion_order and shuffle_seed are mutually exclusive — "
        "an explicit order leaves nothing to shuffle");
}

}  // namespace gentrius::core
