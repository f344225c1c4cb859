// Incremental re-enumeration under PAM edits (BENCH_9): an
// IncrementalSession absorbs a structure-preserving edit stream and is
// compared, at every step, against a from-scratch decompose::run_sharded of
// the same matrix.
//
// Two deterministic families:
//   - count5: five 4-5 taxon block components, counting only, with the
//     closed-form residual on in BOTH drivers — at this component count the
//     interleaving count M is ~10^18, so any enumerated residual baseline
//     is impossible; this is exactly the regime the closed form exists for.
//     Each edit dirties at most one component, so the session re-runs (at
//     most) one cheap shard where the baseline re-runs five. This family
//     carries the BENCH_9 gate: median per-edit speedup >= 5x with count
//     equality at every step.
//   - collect2: two block components with an enumerated residual and full
//     stand collection; the sorted stand set must match the baseline byte
//     for byte at every step (the cross-product streamer differential, on
//     a family small enough to materialize).
//
// Cost metric: Result::intermediate_states — states expanded by the
// branch-and-bound engine, identical across machines (component probes are
// excluded identically in both drivers). GENTRIUS_INCREMENTAL_SEED
// overrides the family seeds for exploration; BENCH_9.json is generated
// from the defaults by tools/run_benchmarks.py --incremental.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchutil/corpus.hpp"
#include "benchutil/edit_stream.hpp"
#include "decompose/components.hpp"
#include "decompose/sharded.hpp"
#include "incremental/session.hpp"

namespace {

using namespace gentrius;

struct FamilyConfig {
  const char* name;
  benchutil::MultiComponentParams params;
  std::size_t noop_loci = 0;    ///< extra below-floor loci (no-op hosts)
  std::size_t n_edits = 12;
  double noop_fraction = 0.25;
  /// Constraint floor (SessionOptions::min_taxa). 3 gives 4-taxon blocks
  /// absent cells to toggle: at floor 4 a 4-taxon block is fully dense and
  /// no structure-preserving cell edit exists.
  std::size_t min_taxa = 3;
  bool collect = false;
  bool closed_form = false;
};

std::vector<std::string> sorted_trees(const core::Result& r) {
  std::vector<std::string> t = r.trees;
  std::sort(t.begin(), t.end());
  return t;
}

void run_family(const FamilyConfig& cfg) {
  auto ds = benchutil::make_multi_component(cfg.params);

  // Below-floor loci host the no-op edit flavor: a single present taxon
  // keeps the locus under the floor, and one fill (to floor - 1 taxa)
  // still induces no constraint.
  for (std::size_t i = 0; i < cfg.noop_loci; ++i) {
    const std::size_t locus = ds.pam.add_locus();
    ds.pam.set_present(
        static_cast<phylo::TaxonId>((3 * i) % ds.pam.taxon_count()), locus,
        true);
  }

  core::Options opts;
  if (cfg.collect) {
    opts.collect_trees = true;
    opts.tree_names = &ds.taxa;
  }

  incremental::SessionOptions so;
  so.engine = opts;
  so.min_taxa = cfg.min_taxa;
  so.run.residual_closed_form = cfg.closed_form;
  incremental::IncrementalSession session(ds.species_tree, ds.pam, so);

  const auto run_scratch = [&]() {
    const auto dec =
        decompose::analyze_pam(ds.species_tree, session.pam(), so.min_taxa);
    return decompose::run_sharded(dec.constraints, opts, so.run);
  };

  const auto dec0 =
      decompose::analyze_pam(ds.species_tree, ds.pam, so.min_taxa);
  std::printf(
      "INC family=%s instance=%s components=%zu enumerable=%zu edits=%zu "
      "closed_form=%d collect=%d\n",
      cfg.name, ds.name.c_str(), dec0.split.components.size(),
      dec0.split.enumerable_count, cfg.n_edits, cfg.closed_form ? 1 : 0,
      cfg.collect ? 1 : 0);

  // The initial enumeration is paid by both drivers and populates the
  // cache; it is reported but not part of the per-edit gate.
  const core::Result init = session.enumerate();
  std::printf("INCINIT family=%s states=%llu trees=%llu saturated=%d\n",
              cfg.name,
              static_cast<unsigned long long>(init.intermediate_states),
              static_cast<unsigned long long>(init.stand_trees),
              init.count_saturated ? 1 : 0);

  benchutil::EditStreamParams ep;
  ep.seed = cfg.params.seed;
  ep.n_edits = cfg.n_edits;
  ep.min_taxa = so.min_taxa;
  ep.noop_fraction = cfg.noop_fraction;
  const auto stream =
      benchutil::make_edit_stream(ds.species_tree, ds.pam, ep);

  std::vector<double> speedups;
  unsigned long long inc_total = 0, scratch_total = 0;
  std::size_t max_dirty = 0;
  bool equal = true;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const core::Result inc = session.apply(stream[i]);
    const core::Result ref = run_scratch();

    const bool count_ok = inc.stand_trees == ref.stand_trees &&
                          inc.count_saturated == ref.count_saturated &&
                          inc.reason == ref.reason;
    bool stands_ok = true;
    if (cfg.collect) stands_ok = sorted_trees(inc) == sorted_trees(ref);
    equal = equal && count_ok && stands_ok;

    const std::size_t dirty = inc.cache.recomputed_components;
    max_dirty = std::max(max_dirty, dirty);
    const unsigned long long inc_states = inc.intermediate_states;
    const unsigned long long scratch_states = ref.intermediate_states;
    inc_total += inc_states;
    scratch_total += scratch_states;
    const double speedup = static_cast<double>(scratch_states) /
                           static_cast<double>(std::max(1ULL, inc_states));
    speedups.push_back(speedup);

    std::printf(
        "INCEDIT family=%s i=%zu kind=%s dirty=%zu inc_states=%llu "
        "scratch_states=%llu hits=%llu misses=%llu count_ok=%d stands_ok=%d "
        "speedup=%.2f\n",
        cfg.name, i + 1, to_string(stream[i].kind), dirty, inc_states,
        scratch_states, static_cast<unsigned long long>(inc.cache.hits),
        static_cast<unsigned long long>(inc.cache.misses), count_ok ? 1 : 0,
        stands_ok ? 1 : 0, speedup);
  }

  std::vector<double> sorted_speedups = speedups;
  std::sort(sorted_speedups.begin(), sorted_speedups.end());
  const double median = sorted_speedups[sorted_speedups.size() / 2];
  const double amortized = static_cast<double>(scratch_total) /
                           static_cast<double>(std::max(1ULL, inc_total));
  std::printf(
      "INCSUM family=%s edits=%zu median_speedup=%.2f amortized_speedup=%.2f "
      "max_dirty=%zu equal=%d lifetime_hits=%llu lifetime_misses=%llu\n",
      cfg.name, speedups.size(), median, amortized, max_dirty, equal ? 1 : 0,
      static_cast<unsigned long long>(session.lifetime_cache_stats().hits),
      static_cast<unsigned long long>(session.lifetime_cache_stats().misses));
}

}  // namespace

int main() {
  std::uint64_t seed_override = 0;
  if (const char* e = std::getenv("GENTRIUS_INCREMENTAL_SEED"))
    seed_override = std::strtoull(e, nullptr, 10);

  // count5: five 4-5 taxon blocks. Seed 23 keeps the closed-form product
  // count uint64-exact (INCINIT saturated=0, 8209003536174065625 trees)
  // with five enumerable components; the costlier components carry most of
  // the from-scratch sweep, so an edit landing elsewhere replays one cheap
  // shard against the baseline's full pass.
  FamilyConfig count5;
  count5.name = "count5";
  count5.params.n_components = 5;
  count5.params.min_taxa_per_component = 4;
  count5.params.max_taxa_per_component = 5;
  count5.params.loci_per_component = 4;
  count5.params.min_taxa_per_locus = 3;
  count5.params.missing_fraction = 0.35;
  count5.params.seed = seed_override ? seed_override : 23;
  count5.noop_loci = 3;
  count5.n_edits = 12;
  count5.closed_form = true;
  run_family(count5);

  // collect2: two blocks, enumerated residual, full stand materialization.
  FamilyConfig collect2;
  collect2.name = "collect2";
  collect2.params.n_components = 2;
  collect2.params.min_taxa_per_component = 4;
  collect2.params.max_taxa_per_component = 4;
  collect2.params.loci_per_component = 3;
  collect2.params.min_taxa_per_locus = 3;
  collect2.params.missing_fraction = 0.3;
  collect2.params.seed = seed_override ? seed_override : 1;
  collect2.n_edits = 8;
  collect2.noop_fraction = 0.0;
  collect2.collect = true;
  run_family(collect2);
  return 0;
}
