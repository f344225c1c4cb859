#include "gentrius/serial.hpp"

#include "support/error.hpp"

namespace gentrius::core {

Result run_serial(const Problem& problem, const Options& options) {
  validate_options(options);
  CounterSink sink(options.stop, /*workers=*/1);
  Enumerator e(problem, options, sink);

  Result result;
  const auto& prefix = e.run_prefix(/*count=*/true);
  result.prefix_length = prefix.length;
  if (prefix.outcome == Enumerator::Prefix::Outcome::kSplit) {
    result.initial_split_branches = prefix.branches.size();
    e.begin_branches(prefix.split_taxon, prefix.branches);
    while (e.step() == Enumerator::Step::kWorked) {}
  }

  e.counters().flush_all();
  result.reason = prefix.outcome == Enumerator::Prefix::Outcome::kEmpty
                      ? StopReason::kEmptyStand
                      : sink.reason();
  result.stand_trees = sink.stand_trees();
  result.intermediate_states = sink.states();
  result.dead_ends = sink.dead_ends();
  result.trees = std::move(e.collected_trees());
  result.selection = e.terrace().selection_stats();
  result.seconds = sink.seconds();
  return result;
}

Result run_serial(const std::vector<phylo::Tree>& constraints,
                  const Options& options) {
  return run_serial(build_problem(constraints, options), options);
}

}  // namespace gentrius::core
