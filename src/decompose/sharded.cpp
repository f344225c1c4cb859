#include "decompose/sharded.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "decompose/shard_exec.hpp"
#include "gentrius/problem.hpp"
#include "gentrius/serial.hpp"
#include "parallel/pool.hpp"
#include "phylo/newick.hpp"
#include "support/check.hpp"
#include "support/error.hpp"

namespace gentrius::decompose {

namespace {

using core::Options;
using core::Result;
using core::ShardStats;
using core::StopReason;
using Kind = ShardStats::Kind;

/// a * b clamped to uint64 max; sets `saturated` on clamp.
std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b,
                             bool& saturated) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<std::uint64_t>::max() / b) {
    saturated = true;
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

/// Taxa over all components: the universe of the residual shard.
std::size_t universe_size(const ComponentSplit& split) {
  std::size_t universe = 0;
  for (const Component& comp : split.components) universe += comp.taxa.size();
  return universe;
}

/// Id-stable labels for Newick round-tripping: label "x<i>" gets id i, for
/// every id up to the split's largest taxon.
phylo::TaxonSet id_labels(const ComponentSplit& split) {
  phylo::TaxonId max_id = 0;
  for (const Component& comp : split.components)
    max_id = std::max(max_id, comp.taxa.back());
  phylo::TaxonSet labels;
  for (phylo::TaxonId t = 0; t <= max_id; ++t) {
    // Appended, not "x" + std::to_string(t): that trips GCC 12's -O3
    // -Wrestrict false positive inside libstdc++.
    std::string label = "x";
    label += std::to_string(t);
    labels.add(label);
  }
  return labels;
}

/// Canonical representative of a component: the first stand tree of a
/// default-options serial probe collecting one tree, a deterministic
/// function of the component alone (independent of the caller's heuristic
/// configuration). nullopt when the component's stand is empty. `labels`
/// must come from id_labels. Probe work is not accumulated into any Result.
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

/// The split and the pass-through constraints; no id labels and no
/// representatives yet. Throws InvalidInput when nothing is enumerable (the
/// same inputs build_problem rejects).
ShardPlan plan_components(const std::vector<phylo::Tree>& constraints) {
  ShardPlan plan;
  plan.split = analyze_components(constraints);
  if (plan.split.enumerable_count == 0)
    throw support::InvalidInput(
        "decompose: no component contains a constraint with >= 3 taxa; "
        "nothing is enumerable");
  for (const Component& comp : plan.split.components)
    if (!comp.enumerable)
      for (const std::size_t c : comp.constraint_indices)
        plan.passthrough.push_back(constraints[c]);
  return plan;
}

/// Probes one representative per enumerable component and assembles the
/// residual instance from them and the pass-through constraints.
void plan_residual(ShardPlan& plan,
                   const std::vector<phylo::Tree>& constraints) {
  for (const Component& comp : plan.split.components) {
    if (!comp.enumerable) continue;
    auto representative = probe_representative(
        detail::subset_constraints(constraints, comp), plan.labels);
    if (representative)
      plan.representatives.push_back(std::move(*representative));
    else
      plan.empty_component = true;
  }
  plan.residual_constraints = plan.representatives;
  plan.residual_constraints.insert(plan.residual_constraints.end(),
                                   plan.passthrough.begin(),
                                   plan.passthrough.end());
}

/// Runs one shard instance through the backend selected by `run`.
Result run_one_shard(const std::vector<phylo::Tree>& constraints,
                     const Options& options, const ShardRunOptions& run) {
  switch (run.backend) {
    case ShardBackend::kSerial:
      return core::run_serial(constraints, options);
    case ShardBackend::kPool:
      return parallel::run_parallel(core::build_problem(constraints, options),
                                    options, run.n_threads);
    case ShardBackend::kVirtual:
      return vthread::run_virtual(core::build_problem(constraints, options),
                                  options, run.n_threads, run.costs);
  }
  GENTRIUS_CHECK(false);
}

/// Per-shard rollup of a shard run's Result.
ShardStats make_stats(Kind kind, std::size_t n_taxa, std::size_t n_constraints,
                      const Result& r) {
  ShardStats s;
  s.kind = kind;
  s.n_taxa = n_taxa;
  s.n_constraints = n_constraints;
  s.stand_trees = r.stand_trees;
  s.intermediate_states = r.intermediate_states;
  s.dead_ends = r.dead_ends;
  s.reason = r.reason;
  s.virtual_makespan = r.virtual_makespan;
  return s;
}

/// The residual shard's rollup under the closed form: M is a formula, not a
/// run, so only the shape and the count are set. The form applies only when
/// every component is enumerable, one representative each.
ShardStats closed_form_stats(const ComponentSplit& split, std::uint64_t count) {
  ShardStats s;
  s.kind = Kind::kResidual;
  s.n_taxa = universe_size(split);
  s.n_constraints = split.enumerable_count;
  s.stand_trees = count;
  return s;
}

/// Folds a shard run into the combined result (counters, scheduler and
/// selection stats, first-stopping-rule-wins reason).
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

/// Whether the interleaving count is the same for every tuple of trees
/// fixed on these parts (components, or the trees of one tuple), `taxa`
/// giving a part's size: at most one part has >= 6 taxa. Every tree on
/// <= 5 taxa is a relabeling of one shape, so such a part adds a
/// shape-free factor, as free taxa do; two larger parts can make the count
/// depend on the shapes fixed.
template <class Parts, class TaxaOf>
bool shape_free(const Parts& parts, TaxaOf taxa) {
  std::size_t large = 0;
  for (const auto& part : parts)
    if (taxa(part) >= 6) ++large;
  return large <= 1;
}

/// shape_free over the split's enumerable components: the product law
/// guarantees the whole count.
bool law_holds(const ComponentSplit& split) {
  return shape_free(split.components, [](const Component& c) {
    return c.enumerable ? c.taxa.size() : 0;
  });
}

/// No stopping rule cut the run short: its count is a property of the
/// instance.
bool finished(StopReason reason) {
  return reason == StopReason::kCompleted || reason == StopReason::kEmptyStand;
}

/// Sharded virtual-time accounting (virtual backend only; see CostModel):
/// the executed shards run back to back on one machine, each paying one
/// dispatch and one merge.
double combine_makespans(const std::vector<double>& makespans,
                         const vthread::CostModel& costs) {
  double total = 0.0;
  for (const double m : makespans)
    total += costs.shard_dispatch_cost + m + costs.shard_merge_cost;
  return total;
}

// ---- result cache ----------------------------------------------------------

constexpr auto kNoRank = static_cast<std::size_t>(-1);

/// taxon id -> canonical rank of the instance (kNoRank outside).
std::vector<std::size_t> rank_of_taxon(
    const std::vector<phylo::TaxonId>& order) {
  phylo::TaxonId max_id = 0;
  for (const phylo::TaxonId t : order) max_id = std::max(max_id, t);
  std::vector<std::size_t> rank(max_id + 1, kNoRank);
  for (std::size_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return rank;
}

/// A collected stand (Newick over `labels`) as rank-label Newick,
/// ascending: the form the cache stores, free of the caller's taxon ids.
std::vector<std::string> to_rank_space(const std::vector<std::string>& stand,
                                       const std::vector<phylo::TaxonId>& order,
                                       phylo::TaxonSet& labels) {
  const auto rank = rank_of_taxon(order);
  std::vector<std::string> out;
  out.reserve(stand.size());
  for (const std::string& tree : stand)
    out.push_back(core::rank_newick(phylo::parse_newick(tree, labels), rank));
  std::sort(out.begin(), out.end());
  return out;
}

/// A cached rank-space stand as the engine's canonical Newick over
/// `labels`, ascending, so the streamed tuples are byte-identical to an
/// uncached run's.
std::vector<std::string> from_rank_space(
    const std::vector<std::string>& stand,
    const std::vector<phylo::TaxonId>& order, const phylo::TaxonSet& labels) {
  // Parsing under `ranks` yields the caller's ids: id i carries the rank
  // label of order^-1(i), and ids outside the instance get unique pad
  // labels so the dense id assignment lines up.
  const auto rank = rank_of_taxon(order);
  phylo::TaxonSet ranks;
  for (std::size_t id = 0; id < rank.size(); ++id)
    ranks.add(rank[id] != kNoRank ? core::canonical_rank_label(rank[id])
                                  : "_pad" + std::to_string(id));
  std::vector<std::string> out;
  out.reserve(stand.size());
  for (const std::string& tree : stand)
    out.push_back(
        phylo::canonical_newick(phylo::parse_newick(tree, ranks), labels));
  std::sort(out.begin(), out.end());
  return out;
}

/// Whether a cached entry can serve a component: when stands are collected
/// it must hold the complete stand within the caller's collect_limit (an
/// uncached run truncates each component's collection at the limit; an
/// entry computed as a residual holds no stand).
bool serves_component(const CacheEntry& entry, const Options& options) {
  return !options.collect_trees || entry.stand_trees == 0 ||
         (entry.stands_complete &&
          entry.stands.size() <= options.collect_limit);
}

/// One shard of a run, a component or the enumerated residual.
struct Shard {
  Kind kind = Kind::kComponent;
  std::size_t n_taxa = 0;
  std::vector<phylo::Tree> instance;
  /// Cached runs only: the shard's key and its hit, held by shared
  /// ownership because a later insert at capacity may evict either.
  std::shared_ptr<const core::CanonicalInstance> canon;
  std::shared_ptr<const CacheEntry> hit;
};

/// The shard, with its canonical key and cache hit when there is a cache
/// that can hold anything: at capacity 0 nothing is keyed.
Shard look_up(Kind kind, std::size_t n_taxa, std::vector<phylo::Tree> instance,
              ResultCache* cache) {
  Shard s;
  s.kind = kind;
  s.n_taxa = n_taxa;
  s.instance = std::move(instance);
  if (cache != nullptr && cache->capacity() > 0) {
    s.canon = cache->key(s.instance);
    s.hit = cache->find(s.canon->fp, s.canon->encoding);
  }
  return s;
}

}  // namespace

namespace detail {

ResidualClosedForm closed_form_residual(const ComponentSplit& split) {
  ResidualClosedForm out;
  for (const Component& comp : split.components)
    if (!comp.enumerable) return out;
  out.applicable = true;
  const std::size_t universe = universe_size(split);

  __extension__ typedef unsigned __int128 u128;  // GCC/Clang builtin
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
  // Where the law holds M is a tree count, so the denominator divides the
  // numerator exactly; it never exceeds it, so a single 128-bit division
  // is exact. Elsewhere the quotient is truncated, and run_sharded reports
  // its count as not exact.
  u128 den = 1;
  for (const Component& comp : split.components)
    for (std::size_t k = 4; k <= comp.taxa.size(); ++k) den *= 2 * k - 5;
  const u128 m = num / den;
  GENTRIUS_DCHECK(m * den == num || !law_holds(split));
  if (m > kMax64) {
    out.saturated = true;
    out.count = kMax64;
  } else {
    out.count = static_cast<std::uint64_t>(m);
  }
  return out;
}

std::vector<phylo::Tree> subset_constraints(
    const std::vector<phylo::Tree>& constraints, const Component& comp) {
  std::vector<phylo::Tree> out;
  out.reserve(comp.constraint_indices.size());
  for (const std::size_t c : comp.constraint_indices)
    out.push_back(constraints[c]);
  return out;
}

Options shard_options(const Options& options) {
  Options o = options;
  o.initial_constraint.reset();
  o.insertion_order.clear();
  return o;
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
    // representatives' tuple). This is guaranteed only when at most one
    // tuple tree has >= 6 taxa; with two, tuples of other shapes can have
    // other counts.
    GENTRIUS_DCHECK(r.reason != StopReason::kCompleted ||
                    out.reason != StopReason::kCompleted ||
                    r.stand_trees == residual_count ||
                    !shape_free(tuple, [](const phylo::Tree& t) {
                      return t.leaf_count();
                    }));
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
  ShardPlan plan = plan_components(constraints);
  plan.labels = id_labels(plan.split);
  plan_residual(plan, constraints);
  return plan;
}

Result run_sharded(const std::vector<phylo::Tree>& constraints,
                   const Options& options, const ShardRunOptions& run,
                   ResultCache* cache) {
  core::validate_options(options);
  ShardPlan plan = plan_components(constraints);
  const Options base = detail::shard_options(options);
  const std::uint64_t evictions_before =
      cache != nullptr ? cache->evictions() : 0;
  detail::ResidualClosedForm closed;
  if (run.residual_closed_form)
    closed = detail::closed_form_residual(plan.split);
  // Only collected stands, the probes of an enumerated residual and the
  // cross-product stream read the id labels.
  if (options.collect_trees || !closed.applicable)
    plan.labels = id_labels(plan.split);

  // Every component is looked up before any of them runs, so an insert of
  // this run cannot evict an entry a later component would have hit.
  std::vector<Shard> components;
  for (const Component& comp : plan.split.components) {
    if (!comp.enumerable) continue;
    Shard s = look_up(Kind::kComponent, comp.taxa.size(),
                      detail::subset_constraints(constraints, comp), cache);
    if (s.hit && !serves_component(*s.hit, options)) s.hit.reset();
    // A hit shows an empty stand before anything runs, so no component is
    // collected in vain; a run shows it only afterwards (below).
    if (s.hit && s.hit->stand_trees == 0) plan.empty_component = true;
    components.push_back(std::move(s));
  }
  // Only an enumerated residual needs representatives. The closed form
  // probes nothing and learns of an empty component from the results.
  if (!closed.applicable) plan_residual(plan, constraints);

  Result out;
  out.reason = StopReason::kCompleted;
  std::uint64_t product = 1;
  std::vector<double> makespans;  // executed shards only: a hit costs no
                                  // dispatch, run, or merge
  // Collected component stands (internal labels), one sorted list per
  // enumerable component, feeding the cross-product streamer below.
  std::vector<std::vector<std::string>> component_stands;
  const bool collect = options.collect_trees && !plan.empty_component;

  // Serves a shard from its hit, or runs it and caches a finished run;
  // returns its rollup.
  const auto serve = [&](const Shard& s) -> ShardStats {
    const bool component = s.kind == Kind::kComponent;
    const bool collect_stand = component && collect;
    if (s.hit) {
      ShardStats stats = s.hit->stats;
      stats.kind = s.kind;  // one instance can be keyed as either kind
      stats.reused = true;
      out.shards.push_back(stats);
      out.cache.hits += 1;
      out.cache.reused_states += stats.intermediate_states;
      if (component) out.cache.reused_components += 1;
      if (collect_stand)
        component_stands.push_back(
            from_rank_space(s.hit->stands, s.canon->order, plan.labels));
      return stats;
    }

    Options opts = base;
    opts.collect_trees = collect_stand;
    if (collect_stand) {
      opts.collect_limit = options.collect_limit;
      opts.tree_names = &plan.labels;
    }
    Result r = run_one_shard(s.instance, opts, run);
    const ShardStats stats = make_stats(s.kind, s.n_taxa, s.instance.size(), r);
    out.shards.push_back(stats);
    accumulate(out, r);
    makespans.push_back(r.virtual_makespan);
    // Canonical tuple order must not depend on the backend's worker
    // interleaving: sort each component's stand lexicographically.
    if (collect_stand) std::sort(r.trees.begin(), r.trees.end());
    if (cache != nullptr) {
      out.cache.misses += 1;
      out.cache.recomputed_states += r.intermediate_states;
      if (component) out.cache.recomputed_components += 1;
      if (s.canon && finished(r.reason)) {
        CacheEntry entry;
        entry.encoding = s.canon->encoding;
        entry.stand_trees = r.stand_trees;
        entry.stats = stats;
        if (collect_stand && r.trees.size() == r.stand_trees) {
          entry.stands = to_rank_space(r.trees, s.canon->order, plan.labels);
          entry.stands_complete = true;
        }
        cache->insert(s.canon->fp, std::move(entry));
      }
    }
    if (collect_stand) component_stands.push_back(std::move(r.trees));
    return stats;
  };

  for (const Shard& s : components) {
    const ShardStats stats = serve(s);
    product = saturating_mul(product, stats.stand_trees, out.count_saturated);
    if (stats.stand_trees == 0 && finished(stats.reason))
      plan.empty_component = true;
  }

  // An empty component empties the whole stand; the residual is skipped.
  std::uint64_t residual_count = 0;
  if (!plan.empty_component && closed.applicable) {
    out.shards.push_back(closed_form_stats(plan.split, closed.count));
    residual_count = closed.count;
    if (closed.saturated) out.count_saturated = true;
  } else if (!plan.empty_component) {
    // Looked up only now, after the components are cached: one instance
    // can be keyed as a component and as the residual.
    const Shard residual = look_up(Kind::kResidual, universe_size(plan.split),
                                   plan.residual_constraints, cache);
    residual_count = serve(residual).stand_trees;
  }
  product = saturating_mul(product, residual_count, out.count_saturated);

  out.stand_trees = product;
  out.count_exact = product == 0 || law_holds(plan.split);
  if (run.backend == ShardBackend::kVirtual)
    out.virtual_makespan = combine_makespans(makespans, run.costs);

  // Cross-product streaming: tuple instances are enumerated serially (they
  // are interleaving-only and cheap: no component branching remains inside
  // them).
  if (product > 0 && !component_stands.empty())
    detail::stream_cross_product(component_stands, plan.passthrough,
                                 plan.labels, base, options, residual_count,
                                 out);
  if (cache != nullptr)
    out.cache.evictions = cache->evictions() - evictions_before;
  return out;
}

}  // namespace gentrius::decompose
