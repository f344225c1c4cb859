// Example: independent-subproblem decomposition and sharded enumeration.
//
// Builds a multi-component instance (block-diagonal PAM: each locus samples
// taxa from exactly one block, so the induced constraints never interact
// across blocks), splits it into interaction-graph components, runs every
// shard plus the canonical residual shard through the engine, and checks
// the product law from DESIGN.md "Decomposition":
//
//   count(whole) = prod_i count(C_i) * M,   M = (2n-5)!! / prod_i (2n_i-5)!!
//
// where M — measured here by the residual shard itself — counts the ways to
// interleave one fixed tree per component into a tree on the whole taxon
// universe. The virtual-time sweep at the end compares the monolithic
// schedule against the sharded one (shards back to back on one machine)
// at several worker counts, all deterministic simulated time.
#include <cstdio>
#include <cstdlib>

#include "benchutil/corpus.hpp"
#include "decompose/components.hpp"
#include "decompose/sharded.hpp"
#include "gentrius/serial.hpp"
#include "vthread/virtual_pool.hpp"

int main(int argc, char** argv) {
  using namespace gentrius;

  benchutil::MultiComponentParams params;
  params.n_components = 2;
  params.min_taxa_per_component = 5;
  params.max_taxa_per_component = 6;
  params.loci_per_component = 3;
  params.missing_fraction = 0.35;
  params.seed = 4;
  if (argc > 1) params.seed = std::strtoull(argv[1], nullptr, 10);
  const auto dataset = benchutil::make_multi_component(params);

  const auto split = decompose::analyze_components(dataset.constraints);
  std::printf("dataset %s: %zu taxa, %zu constraints, %zu components "
              "(%zu enumerable)\n",
              dataset.name.c_str(), dataset.taxon_count(),
              dataset.constraints.size(), split.components.size(),
              split.enumerable_count);
  for (std::size_t i = 0; i < split.components.size(); ++i) {
    const auto& c = split.components[i];
    std::printf("  component %zu: %zu taxa, %zu constraints%s\n", i,
                c.taxa.size(), c.constraint_indices.size(),
                c.enumerable ? "" : " (vacuous, passed through)");
  }

  core::Options options;
  options.stop.max_stand_trees = 2'000'000;
  options.stop.max_states = 30'000'000;

  const auto problem = core::build_problem(dataset.constraints, options);
  const auto mono = core::run_serial(problem, options);
  std::printf("\nmonolithic serial: %llu stand trees, %llu states (%s)\n",
              static_cast<unsigned long long>(mono.stand_trees),
              static_cast<unsigned long long>(mono.intermediate_states),
              core::to_string(mono.reason));

  const auto sharded = decompose::run_sharded(dataset.constraints, options);
  std::printf("sharded serial:    %llu stand trees, %llu states (%s)\n",
              static_cast<unsigned long long>(sharded.stand_trees),
              static_cast<unsigned long long>(sharded.intermediate_states),
              core::to_string(sharded.reason));
  unsigned long long product = 1;
  for (const auto& s : sharded.shards) {
    std::printf("  %s\n", decompose::shard_trace_line(s).c_str());
    product *= static_cast<unsigned long long>(s.stand_trees);
  }
  std::printf("product law: prod(shard counts) = %llu, monolithic = %llu — "
              "%s\n", product,
              static_cast<unsigned long long>(mono.stand_trees),
              (product == mono.stand_trees &&
               sharded.stand_trees == mono.stand_trees)
                  ? "agree"
                  : "DISAGREE");

  std::printf("\n%8s | %14s | %14s %8s\n", "threads", "monolithic",
              "sharded", "speedup");
  for (const std::size_t t : {1u, 2u, 4u, 8u}) {
    const auto m = vthread::run_virtual(problem, options, t);
    decompose::ShardRunOptions run;
    run.backend = decompose::ShardBackend::kVirtual;
    run.n_threads = t;
    const auto v = decompose::run_sharded(dataset.constraints, options, run);
    std::printf("%8zu | %14.1f | %14.1f %8.2f\n", t, m.virtual_makespan,
                v.virtual_makespan, m.virtual_makespan / v.virtual_makespan);
  }
  return sharded.stand_trees == mono.stand_trees ? 0 : 1;
}
