#include "incremental/session.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "decompose/shard_exec.hpp"
#include "gentrius/problem.hpp"
#include "phylo/newick.hpp"
#include "support/error.hpp"

namespace gentrius::incremental {

namespace {

using core::Options;
using core::Result;
using core::ShardStats;
using core::StopReason;
using decompose::Component;
using support::InvalidInput;

constexpr auto kNoRank = static_cast<std::size_t>(-1);

/// taxon id -> canonical rank of the component instance (kNoRank outside).
std::vector<std::size_t> rank_of_taxon(
    const std::vector<phylo::TaxonId>& order) {
  phylo::TaxonId max_id = 0;
  for (const phylo::TaxonId t : order) max_id = std::max(max_id, t);
  std::vector<std::size_t> rank(max_id + 1, kNoRank);
  for (std::size_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return rank;
}

/// TaxonSet under which parsing rank-label Newick yields session taxon ids:
/// id i carries the rank label of order^-1(i) (ids outside the component
/// get unique pad labels so the dense id assignment lines up).
phylo::TaxonSet rank_parse_labels(const std::vector<phylo::TaxonId>& order) {
  const auto rank = rank_of_taxon(order);
  phylo::TaxonSet ts;
  for (std::size_t id = 0; id < rank.size(); ++id)
    ts.add(rank[id] != kNoRank ? core::canonical_rank_label(rank[id])
                               : "_pad" + std::to_string(id));
  return ts;
}

/// Whether a cached entry can serve a component: when stands are collected
/// it must hold the complete stand within the caller's collect_limit (a
/// from-scratch run truncates each component's collection at the limit; an
/// entry computed as a residual holds no stand).
bool serves_component(const CacheEntry& entry, const Options& engine) {
  return !engine.collect_trees || entry.stand_trees == 0 ||
         (entry.stands_complete && entry.stands.size() <= engine.collect_limit);
}

/// One shard of a re-enumeration, component or residual, keyed by the
/// canonical encoding of its instance.
struct ShardWork {
  ShardStats::Kind kind = ShardStats::Kind::kComponent;
  std::size_t n_taxa = 0;
  std::vector<phylo::Tree> instance;
  core::CanonicalInstance canon;
  /// The usable cache hit, held by shared ownership: a run-phase insert at
  /// capacity may evict it from the cache before it is served.
  std::shared_ptr<const CacheEntry> hit;
  /// Components only: run_sharded's representative, probed on this
  /// instance; nullopt when the component's stand is empty, or on a hit
  /// when the residual takes the closed form.
  std::optional<phylo::Tree> representative;
};

}  // namespace

IncrementalSession::IncrementalSession(phylo::Tree species_tree, pam::Pam pam,
                                       SessionOptions options)
    : species_(std::move(species_tree)),
      pam_(std::move(pam)),
      options_(std::move(options)),
      cache_(options_.cache_capacity) {
  core::validate_options(options_.engine, core::OptionsSurface::kIncremental);
  for (phylo::TaxonId t = 0; t < pam_.taxon_count(); ++t)
    if (!species_.has_taxon(t))
      throw InvalidInput(
          "incremental session: species tree is missing a leaf for taxon " +
          std::to_string(t) +
          " (it must span the session's full taxon universe)");
}

Result IncrementalSession::apply(const PamDelta& edit) {
  return apply(EditScript{edit});
}

Result IncrementalSession::apply(const EditScript& script) {
  // Validate-then-commit: the script lands on a scratch copy, so a
  // mid-script failure (out-of-range index, filling an already-present
  // cell, ...) rethrows with the session matrix untouched. An edited matrix
  // that cannot be enumerated (nothing enumerable, a species tree missing a
  // present taxon) is rolled back the same way.
  pam::Pam edited = pam_;
  for (const PamDelta& edit : script)
    apply_edit(edited, edit, species_.leaf_count());
  std::swap(pam_, edited);
  try {
    return enumerate();
  } catch (...) {
    std::swap(pam_, edited);
    throw;
  }
}

Result IncrementalSession::enumerate() {
  namespace detail = decompose::detail;
  using Kind = ShardStats::Kind;

  const auto decomp =
      decompose::analyze_pam(species_, pam_, options_.min_taxa);
  const auto& split = decomp.split;
  if (split.enumerable_count == 0)
    throw InvalidInput(
        "decompose: no component contains a constraint with >= 3 taxa; "
        "nothing is enumerable");

  phylo::TaxonSet labels = detail::id_labels(split);
  const Options base = detail::shard_options(options_.engine);
  const std::uint64_t evictions_before = cache_.evictions();
  detail::ResidualClosedForm closed;
  if (options_.run.residual_closed_form)
    closed = detail::closed_form_residual(split);

  // ---- plan phase: canonicalize, look up, probe representatives -----------
  std::vector<ShardWork> work;
  std::vector<phylo::Tree> passthrough;
  bool empty_component = false;
  for (const Component& comp : split.components) {
    if (!comp.enumerable) {
      for (const std::size_t c : comp.constraint_indices)
        passthrough.push_back(decomp.constraints[c]);
      continue;
    }
    ShardWork w;
    w.n_taxa = comp.taxa.size();
    w.instance = detail::subset_constraints(decomp.constraints, comp);
    w.canon = core::canonicalize_instance(w.instance);
    w.hit = cache_.find(w.canon.fp, w.canon.encoding);
    if (w.hit && !serves_component(*w.hit, options_.engine)) w.hit.reset();
    if (w.hit && closed.applicable) {
      // The closed form needs no representative; the count tells whether
      // the stand is empty.
      if (w.hit->stand_trees == 0) empty_component = true;
    } else {
      // Probed even on a hit: the representative is a function of the
      // labelled instance (the probe breaks ties by taxon id), so one
      // cached under an isomorphic instance may have another shape, and
      // from 6 taxa on the residual count depends on the shapes.
      w.representative = detail::probe_representative(w.instance, labels);
      if (!w.representative) empty_component = true;
    }
    work.push_back(std::move(w));
  }

  // ---- run phase: serve hits, run and cache misses ------------------------
  Result out;
  out.reason = StopReason::kCompleted;
  std::uint64_t product = 1;
  std::vector<double> makespans;  // executed shards only: a cached shard
                                  // costs no dispatch, run, or merge
  std::vector<std::vector<std::string>> component_stands;
  const bool collect = options_.engine.collect_trees && !empty_component;

  // Every shard, component or residual, is served the same way; returns
  // its stand count.
  const auto serve = [&](const ShardWork& w) -> std::uint64_t {
    const bool component = w.kind == Kind::kComponent;
    if (w.hit) {
      ShardStats s = w.hit->stats;
      s.kind = w.kind;  // one instance can be keyed as either kind
      s.reused = true;
      out.shards.push_back(s);
      out.cache.hits += 1;
      out.cache.reused_states += s.intermediate_states;
      if (!component) return w.hit->stand_trees;
      out.cache.reused_components += 1;
      if (collect) {
        // Cached stands live in rank space; translate into session labels
        // through the engine's canonical Newick so the streamed tuples are
        // byte-identical to a from-scratch run's.
        auto parse_ts = rank_parse_labels(w.canon.order);
        std::vector<std::string> stands;
        stands.reserve(w.hit->stands.size());
        for (const std::string& s_rank : w.hit->stands)
          stands.push_back(phylo::canonical_newick(
              phylo::parse_newick(s_rank, parse_ts), labels));
        std::sort(stands.begin(), stands.end());
        component_stands.push_back(std::move(stands));
      }
      return w.hit->stand_trees;
    }

    Options opts = base;
    opts.collect_trees = component && collect;
    if (opts.collect_trees) {
      opts.collect_limit = options_.engine.collect_limit;
      opts.tree_names = &labels;
    }
    Result r = detail::run_one_shard(w.instance, opts, options_.run);
    const ShardStats stats =
        detail::make_stats(w.kind, w.n_taxa, w.instance.size(), r);
    out.shards.push_back(stats);
    detail::accumulate(out, r);
    makespans.push_back(r.virtual_makespan);
    out.cache.misses += 1;
    out.cache.recomputed_states += r.intermediate_states;
    if (component) out.cache.recomputed_components += 1;
    if (opts.collect_trees) std::sort(r.trees.begin(), r.trees.end());

    // Only completed runs are cacheable: a truncated count is a property
    // of the stopping rules, not of the instance.
    if (r.reason == StopReason::kCompleted ||
        r.reason == StopReason::kEmptyStand) {
      CacheEntry entry;
      entry.encoding = w.canon.encoding;
      entry.stand_trees = r.stand_trees;
      entry.stats = stats;
      if (opts.collect_trees && r.trees.size() == r.stand_trees) {
        const auto rank = rank_of_taxon(w.canon.order);
        entry.stands.reserve(r.trees.size());
        for (const std::string& s_x : r.trees)
          entry.stands.push_back(
              core::rank_newick(phylo::parse_newick(s_x, labels), rank));
        std::sort(entry.stands.begin(), entry.stands.end());
        entry.stands_complete = true;
      }
      cache_.insert(w.canon.fp, std::move(entry));
    }
    if (opts.collect_trees) component_stands.push_back(std::move(r.trees));
    return r.stand_trees;
  };

  for (const ShardWork& w : work)
    product = detail::saturating_mul(product, serve(w), out.count_saturated);

  // ---- residual shard: looked up after the components are cached ----------
  std::uint64_t residual_count = 0;
  if (closed.applicable && !empty_component) {
    // Closed form costs nothing, so it bypasses the cache entirely (no
    // hit/miss traffic): M is a formula, not a run.
    out.shards.push_back(detail::closed_form_stats(
        split, work.size() + passthrough.size(), closed.count));
    residual_count = closed.count;
    if (closed.saturated) out.count_saturated = true;
  } else if (!empty_component) {
    ShardWork res;
    res.kind = Kind::kResidual;
    res.n_taxa = detail::universe_size(split);
    res.instance.reserve(work.size() + passthrough.size());
    for (const ShardWork& w : work)
      res.instance.push_back(w.representative.value());
    res.instance.insert(res.instance.end(), passthrough.begin(),
                        passthrough.end());
    res.canon = core::canonicalize_instance(res.instance);
    res.hit = cache_.find(res.canon.fp, res.canon.encoding);
    residual_count = serve(res);
  }
  product =
      detail::saturating_mul(product, residual_count, out.count_saturated);

  out.stand_trees = product;
  if (options_.run.backend == decompose::ShardBackend::kVirtual)
    out.virtual_makespan = detail::combine_makespans(makespans, options_.run);

  if (collect && product > 0 && !component_stands.empty())
    detail::stream_cross_product(component_stands, passthrough, labels, base,
                                 options_.engine, residual_count, out);

  out.cache.evictions = cache_.evictions() - evictions_before;
  lifetime_.merge(out.cache);
  return out;
}

}  // namespace gentrius::incremental
