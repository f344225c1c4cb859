#include "decompose/sharded.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "decompose/shard_exec.hpp"
#include "gentrius/problem.hpp"
#include "gentrius/serial.hpp"
#include "phylo/newick.hpp"
#include "support/check.hpp"
#include "support/error.hpp"

namespace gentrius::decompose {

namespace detail {

using core::Options;
using core::Result;
using core::ShardStats;
using core::StopReason;

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b,
                             bool& saturated) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<std::uint64_t>::max() / b) {
    saturated = true;
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

ResidualClosedForm closed_form_residual(const ComponentSplit& split) {
  ResidualClosedForm out;
  for (const Component& comp : split.components)
    if (!comp.enumerable) return out;
  out.applicable = true;
  const std::size_t universe = universe_size(split);

  using u128 = unsigned __int128;
  constexpr u128 kMax128 = ~static_cast<u128>(0);
  constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
  u128 num = 1;
  for (std::size_t k = 4; k <= universe; ++k) {
    const u128 f = 2 * k - 5;
    if (num > kMax128 / f) {
      // Numerator needs > 128 bits (universe > 37); M >= (2n-5)!! / (2n-7)!!
      // per component merge is astronomically past uint64 by then.
      out.saturated = true;
      out.count = kMax64;
      return out;
    }
    num *= f;
  }
  // The denominator divides the numerator exactly (M is a tree count), and
  // it never exceeds it, so a single 128-bit division is exact.
  u128 den = 1;
  for (const Component& comp : split.components)
    for (std::size_t k = 4; k <= comp.taxa.size(); ++k) den *= 2 * k - 5;
  const u128 m = num / den;
  GENTRIUS_DCHECK(m * den == num);
  if (m > kMax64) {
    out.saturated = true;
    out.count = kMax64;
  } else {
    out.count = static_cast<std::uint64_t>(m);
  }
  return out;
}

ShardStats closed_form_stats(const ComponentSplit& split,
                             std::size_t n_constraints, std::uint64_t count) {
  ShardStats s;
  s.kind = ShardStats::Kind::kResidual;
  s.n_taxa = universe_size(split);
  s.n_constraints = n_constraints;
  s.stand_trees = count;
  return s;
}

std::vector<phylo::Tree> subset_constraints(
    const std::vector<phylo::Tree>& constraints, const Component& comp) {
  std::vector<phylo::Tree> out;
  out.reserve(comp.constraint_indices.size());
  for (const std::size_t c : comp.constraint_indices)
    out.push_back(constraints[c]);
  return out;
}

std::size_t universe_size(const ComponentSplit& split) {
  std::size_t universe = 0;
  for (const Component& comp : split.components) universe += comp.taxa.size();
  return universe;
}

phylo::TaxonSet id_labels(const ComponentSplit& split) {
  phylo::TaxonId max_id = 0;
  for (const Component& comp : split.components)
    max_id = std::max(max_id, comp.taxa.back());
  phylo::TaxonSet labels;
  for (phylo::TaxonId t = 0; t <= max_id; ++t)
    labels.add("x" + std::to_string(t));
  return labels;
}

std::optional<phylo::Tree> probe_representative(
    const std::vector<phylo::Tree>& component, phylo::TaxonSet& labels) {
  Options probe;
  probe.collect_trees = true;
  probe.collect_limit = 1;
  probe.stop.max_stand_trees = 1;
  probe.tree_names = &labels;
  const Result r = core::run_serial(component, probe);
  if (r.trees.empty()) return std::nullopt;
  return phylo::parse_newick(r.trees.front(), labels);
}

Options shard_options(const Options& options) {
  Options o = options;
  o.decompose = core::Decompose::kOff;
  o.initial_constraint.reset();
  o.insertion_order.clear();
  return o;
}

Result run_one_shard(const std::vector<phylo::Tree>& constraints,
                     const Options& options, const ShardRunOptions& run) {
  switch (run.backend) {
    case ShardBackend::kSerial:
      return core::run_serial(constraints, options);
    case ShardBackend::kPool:
      return parallel::run_parallel(core::build_problem(constraints, options),
                                    options, run.n_threads, run.launch_mode);
    case ShardBackend::kVirtual:
      return vthread::run_virtual(core::build_problem(constraints, options),
                                  options, run.n_threads, run.costs);
  }
  GENTRIUS_CHECK(false);
}

ShardStats make_stats(ShardStats::Kind kind, std::size_t n_taxa,
                      std::size_t n_constraints, const Result& r) {
  ShardStats s;
  s.kind = kind;
  s.n_taxa = n_taxa;
  s.n_constraints = n_constraints;
  s.stand_trees = r.stand_trees;
  s.intermediate_states = r.intermediate_states;
  s.dead_ends = r.dead_ends;
  s.reason = r.reason;
  s.selection = r.selection;
  s.sched = r.sched;
  s.virtual_makespan = r.virtual_makespan;
  return s;
}

void accumulate(Result& out, const Result& r) {
  out.intermediate_states += r.intermediate_states;
  out.dead_ends += r.dead_ends;
  out.tasks_executed += r.tasks_executed;
  out.tasks_offered += r.tasks_offered;
  out.sched.merge(r.sched);
  out.selection.merge(r.selection);
  // The first stopping rule that fired anywhere decides the combined
  // reason; an empty shard stand is a *result* (count 0), not a stop.
  if (out.reason == StopReason::kCompleted &&
      r.reason != StopReason::kCompleted &&
      r.reason != StopReason::kEmptyStand)
    out.reason = r.reason;
}

double combine_makespans(const std::vector<double>& makespans,
                         const ShardRunOptions& run) {
  const double dispatch = run.costs.shard_dispatch_cost;
  const double merge = run.costs.shard_merge_cost;
  const auto n = static_cast<double>(makespans.size());
  if (run.schedule == ShardSchedule::kSequential) {
    double total = 0.0;
    for (const double m : makespans) total += dispatch + m + merge;
    return total;
  }
  // Concurrent: one machine per shard. Dispatches leave the coordinator
  // back to back, shards overlap, merges serialize on the coordinator
  // after the last shard finishes.
  double finish = 0.0;
  for (std::size_t s = 0; s < makespans.size(); ++s)
    finish = std::max(
        finish, dispatch * static_cast<double>(s + 1) + makespans[s]);
  return finish + merge * n;
}

void stream_cross_product(
    const std::vector<std::vector<std::string>>& component_stands,
    const std::vector<phylo::Tree>& passthrough, phylo::TaxonSet& labels,
    const core::Options& base, const core::Options& caller,
    std::uint64_t residual_count, core::Result& out) {
  const std::size_t k = component_stands.size();
  // done: a truncated-to-empty component list (collect_limit == 0), or
  // the odometer wrapped — every tuple has been streamed.
  bool done = false;
  for (const auto& stand : component_stands)
    if (stand.empty()) done = true;
  std::vector<std::size_t> index(k, 0);
  Options tuple_opts = base;
  tuple_opts.collect_trees = true;
  tuple_opts.tree_names = caller.tree_names;
  while (!done && out.trees.size() < caller.collect_limit) {
    std::vector<phylo::Tree> tuple = passthrough;
    for (std::size_t i = 0; i < k; ++i)
      tuple.push_back(
          phylo::parse_newick(component_stands[i][index[i]], labels));
    tuple_opts.collect_limit = caller.collect_limit - out.trees.size();
    Result r = core::run_serial(tuple, tuple_opts);
    // Shape independence of the interleaving count: every tuple instance
    // has the residual instance's count (the residual *is* the canonical
    // representatives' tuple). This is guaranteed only for components of
    // <= 5 taxa; from 6 taxa on tuples of other shapes can have other counts.
    GENTRIUS_DCHECK(r.reason != StopReason::kCompleted ||
                    out.reason != StopReason::kCompleted ||
                    r.stand_trees == residual_count);
    out.trees.insert(out.trees.end(),
                     std::make_move_iterator(r.trees.begin()),
                     std::make_move_iterator(r.trees.end()));
    // Odometer over the tuple space, last component fastest.
    std::size_t i = k;
    while (i > 0) {
      --i;
      if (++index[i] < component_stands[i].size()) break;
      index[i] = 0;
      if (i == 0) done = true;  // wrapped: all tuples streamed
    }
  }
}

}  // namespace detail

namespace {

using core::Options;
using core::Result;
using core::ShardStats;
using core::StopReason;
using detail::accumulate;
using detail::combine_makespans;
using detail::make_stats;
using detail::run_one_shard;
using detail::saturating_mul;
using detail::shard_options;
using detail::subset_constraints;

}  // namespace

std::string shard_trace_line(const core::ShardStats& s) {
  std::string line = "shard ";
  line += core::to_string(s.kind);
  line += " taxa=" + std::to_string(s.n_taxa);
  line += " constraints=" + std::to_string(s.n_constraints);
  line += " trees=" + std::to_string(s.stand_trees);
  line += " states=" + std::to_string(s.intermediate_states);
  line += " dead_ends=" + std::to_string(s.dead_ends);
  line += " reason=";
  line += core::to_string(s.reason);
  return line;
}

ShardPlan plan_shards(const std::vector<phylo::Tree>& constraints) {
  ShardPlan plan;
  plan.split = analyze_components(constraints);
  if (plan.split.enumerable_count == 0)
    throw support::InvalidInput(
        "decompose: no component contains a constraint with >= 3 taxa; "
        "nothing is enumerable");

  plan.labels = detail::id_labels(plan.split);

  for (const Component& comp : plan.split.components) {
    if (!comp.enumerable) {
      for (const std::size_t c : comp.constraint_indices)
        plan.passthrough.push_back(constraints[c]);
      continue;
    }
    auto representative = detail::probe_representative(
        subset_constraints(constraints, comp), plan.labels);
    if (!representative) {
      plan.empty_component = true;
      continue;
    }
    plan.representatives.push_back(std::move(*representative));
  }

  plan.residual_constraints = plan.representatives;
  plan.residual_constraints.insert(plan.residual_constraints.end(),
                                   plan.passthrough.begin(),
                                   plan.passthrough.end());
  return plan;
}

Result run_sharded(const std::vector<phylo::Tree>& constraints,
                   const Options& options, const ShardRunOptions& run) {
  core::validate_options(options, core::OptionsSurface::kSharded);
  ShardPlan plan = plan_shards(constraints);
  const Options base = shard_options(options);

  Result out;
  out.reason = StopReason::kCompleted;
  std::uint64_t product = 1;
  std::vector<double> makespans;
  // Collected component stands (internal labels), one sorted list per
  // enumerable component, feeding the cross-product streamer below.
  std::vector<std::vector<std::string>> component_stands;

  for (const Component& comp : plan.split.components) {
    if (!comp.enumerable) continue;
    Options comp_opts = base;
    if (options.collect_trees && !plan.empty_component) {
      comp_opts.collect_trees = true;
      comp_opts.collect_limit = options.collect_limit;
      comp_opts.tree_names = &plan.labels;
    } else {
      comp_opts.collect_trees = false;
    }
    Result r = run_one_shard(subset_constraints(constraints, comp),
                             comp_opts, run);
    out.shards.push_back(make_stats(ShardStats::Kind::kComponent,
                                    comp.taxa.size(),
                                    comp.constraint_indices.size(), r));
    accumulate(out, r);
    product = saturating_mul(product, r.stand_trees, out.count_saturated);
    makespans.push_back(r.virtual_makespan);
    if (comp_opts.collect_trees) {
      // Canonical tuple order must not depend on the backend's worker
      // interleaving: sort each component's stand lexicographically.
      std::sort(r.trees.begin(), r.trees.end());
      component_stands.push_back(std::move(r.trees));
    }
  }

  std::uint64_t residual_count = 0;
  detail::ResidualClosedForm closed;
  if (run.residual_closed_form && !plan.empty_component)
    closed = detail::closed_form_residual(plan.split);
  if (closed.applicable) {
    out.shards.push_back(detail::closed_form_stats(
        plan.split, plan.residual_constraints.size(), closed.count));
    residual_count = closed.count;
    if (closed.saturated) out.count_saturated = true;
    product = saturating_mul(product, residual_count, out.count_saturated);
  } else if (!plan.empty_component) {
    Options res_opts = base;
    res_opts.collect_trees = false;
    const Result r = run_one_shard(plan.residual_constraints, res_opts, run);
    out.shards.push_back(make_stats(ShardStats::Kind::kResidual,
                                    detail::universe_size(plan.split),
                                    plan.residual_constraints.size(), r));
    accumulate(out, r);
    residual_count = r.stand_trees;
    product = saturating_mul(product, residual_count, out.count_saturated);
    makespans.push_back(r.virtual_makespan);
  } else {
    product = 0;
  }

  out.stand_trees = product;
  if (run.backend == ShardBackend::kVirtual)
    out.virtual_makespan = combine_makespans(makespans, run);

  // Cross-product streaming: tuple instances are enumerated serially (they
  // are interleaving-only and cheap: no component branching remains inside
  // them). Shared with the incremental session (shard_exec.hpp) so both
  // drivers stream the identical tree sequence.
  if (options.collect_trees && product > 0 && !component_stands.empty())
    detail::stream_cross_product(component_stands, plan.passthrough,
                                 plan.labels, base, options, residual_count,
                                 out);
  return out;
}

Result run_serial(const std::vector<phylo::Tree>& constraints,
                  const Options& options) {
  if (options.decompose == core::Decompose::kOff)
    return core::run_serial(constraints, options);
  ShardRunOptions run;
  run.backend = ShardBackend::kSerial;
  return run_sharded(constraints, options, run);
}

Result run_parallel(const std::vector<phylo::Tree>& constraints,
                    const Options& options, std::size_t n_threads,
                    parallel::LaunchMode mode) {
  if (options.decompose == core::Decompose::kOff)
    return parallel::run_parallel(core::build_problem(constraints, options),
                                  options, n_threads, mode);
  ShardRunOptions run;
  run.backend = ShardBackend::kPool;
  run.n_threads = n_threads;
  run.launch_mode = mode;
  return run_sharded(constraints, options, run);
}

Result run_virtual(const std::vector<phylo::Tree>& constraints,
                   const Options& options, std::size_t n_threads,
                   const vthread::CostModel& costs, ShardSchedule schedule) {
  if (options.decompose == core::Decompose::kOff)
    return vthread::run_virtual(core::build_problem(constraints, options),
                                options, n_threads, costs);
  ShardRunOptions run;
  run.backend = ShardBackend::kVirtual;
  run.n_threads = n_threads;
  run.schedule = schedule;
  run.costs = costs;
  return run_sharded(constraints, options, run);
}

}  // namespace gentrius::decompose
