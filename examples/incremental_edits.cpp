// Example: incremental re-enumeration under PAM edits.
//
// An IncrementalSession wraps a presence/absence matrix and keeps a
// component-level result cache keyed by canonical instance fingerprints.
// When the matrix is edited, only the components whose induced constraint
// sets actually changed are re-enumerated; every clean component is served
// from the cache (its stand set is stored in rank space, so it survives
// taxon relabeling). This example applies a structure-preserving edit
// stream and prints, per edit, how much work the session did versus a
// from-scratch decompose::run_sharded of the same matrix — the differential
// that also backs the BENCH_9 gate.
//
// Exit status is 0 only if the incremental counts and sorted stand sets
// match the from-scratch driver at every step.
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

int main(int argc, char** argv) {
  using namespace gentrius;

  benchutil::MultiComponentParams params;
  params.n_components = 2;
  params.min_taxa_per_component = 4;
  params.max_taxa_per_component = 5;
  params.loci_per_component = 3;
  params.min_taxa_per_locus = 3;
  params.missing_fraction = 0.3;
  params.seed = 7;
  if (argc > 1) params.seed = std::strtoull(argv[1], nullptr, 10);
  auto dataset = benchutil::make_multi_component(params);

  core::Options options;
  options.collect_trees = true;
  options.tree_names = &dataset.taxa;

  incremental::SessionOptions so;
  so.engine = options;
  so.min_taxa = 3;
  incremental::IncrementalSession session(dataset.species_tree, dataset.pam,
                                          so);

  const auto dec =
      decompose::analyze_pam(dataset.species_tree, dataset.pam, so.min_taxa);
  std::printf("dataset %s: %zu taxa, %zu loci, %zu components\n",
              dataset.name.c_str(), dataset.pam.taxon_count(),
              dataset.pam.locus_count(), dec.split.components.size());

  const core::Result init = session.enumerate();
  std::printf("initial enumeration: %llu stand trees, %llu states\n\n",
              static_cast<unsigned long long>(init.stand_trees),
              static_cast<unsigned long long>(init.intermediate_states));

  benchutil::EditStreamParams ep;
  ep.seed = params.seed;
  ep.n_edits = 8;
  ep.min_taxa = so.min_taxa;
  ep.noop_fraction = 0.25;
  const auto stream =
      benchutil::make_edit_stream(dataset.species_tree, dataset.pam, ep);

  const auto sorted_trees = [](const core::Result& r) {
    std::vector<std::string> t = r.trees;
    std::sort(t.begin(), t.end());
    return t;
  };

  std::printf("%4s %11s %6s %5s %7s %10s %10s %6s\n", "edit", "kind",
              "dirty", "hits", "misses", "inc", "scratch", "match");
  bool all_equal = true;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const core::Result inc = session.apply(stream[i]);
    const auto ref_dec = decompose::analyze_pam(dataset.species_tree,
                                                session.pam(), so.min_taxa);
    const core::Result ref =
        decompose::run_sharded(ref_dec.constraints, options, so.run);
    const bool ok = inc.stand_trees == ref.stand_trees &&
                    sorted_trees(inc) == sorted_trees(ref);
    all_equal = all_equal && ok;
    std::printf("%4zu %11s %6zu %5llu %7llu %10llu %10llu %6s\n", i + 1,
                to_string(stream[i].kind), inc.cache.recomputed_components,
                static_cast<unsigned long long>(inc.cache.hits),
                static_cast<unsigned long long>(inc.cache.misses),
                static_cast<unsigned long long>(inc.intermediate_states),
                static_cast<unsigned long long>(ref.intermediate_states),
                ok ? "yes" : "NO");
  }

  const auto& life = session.lifetime_cache_stats();
  std::printf("\nlifetime cache: %llu hits, %llu misses — incremental and "
              "from-scratch %s at every step\n",
              static_cast<unsigned long long>(life.hits),
              static_cast<unsigned long long>(life.misses),
              all_equal ? "agree" : "DISAGREE");
  return all_equal ? 0 : 1;
}
