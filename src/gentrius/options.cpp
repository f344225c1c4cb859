#include "gentrius/options.hpp"

#include <string>

#include "support/error.hpp"

namespace gentrius::core {

using support::InvalidInput;

void validate_options(const Options& options, OptionsSurface surface) {
  // ---- surface-independent combination rules -------------------------------

  if (options.tree_flush_batch == 0 || options.state_flush_batch == 0 ||
      options.dead_end_flush_batch == 0)
    throw InvalidInput(
        "Options: counter flush batches must be >= 1 (a batch of 0 would "
        "never publish local counts, so no stopping rule could fire)");

  if (!options.insertion_order.empty() && options.shuffle_seed)
    throw InvalidInput(
        "Options: insertion_order and shuffle_seed are mutually exclusive — "
        "an explicit order leaves nothing to shuffle");

  if (options.collect_trees && options.tree_names == nullptr &&
      surface == OptionsSurface::kIncremental)
    throw InvalidInput(
        "Options: the incremental session collects stand trees as labelled "
        "Newick; set Options::tree_names when collect_trees is on");

  // ---- per-surface rules ---------------------------------------------------

  switch (surface) {
    case OptionsSurface::kSingleInstance:
      if (options.decompose != Decompose::kOff)
        throw InvalidInput(
            "Options::decompose = kComponents is not honored by the "
            "single-instance drivers; use the decompose::run_* entry points "
            "(src/decompose), which shard and recombine");
      break;

    case OptionsSurface::kSharded:
      // Both decompose modes are meaningful here: kOff forwards to the
      // monolithic driver, kComponents shards. initial_constraint /
      // insertion_order are whole-instance references that run_sharded
      // clears per shard, so they stay legal.
      break;

    case OptionsSurface::kIncremental:
      if (options.decompose != Decompose::kComponents)
        throw InvalidInput(
            "Options::decompose = kOff cannot drive an incremental session: "
            "the component-level result cache needs the interaction-graph "
            "decomposition; set Options::decompose = kComponents");
      if (options.initial_constraint || !options.insertion_order.empty())
        throw InvalidInput(
            "Options: initial_constraint / insertion_order index the whole "
            "constraint list and cannot survive PAM edits; the incremental "
            "session rejects them");
      break;
  }
}

}  // namespace gentrius::core
