// Metamorphic tests for the sharded driver.
//
// Relation under test: appending an *independent* component (taxon-disjoint
// from everything present) multiplies the component-count product by the new
// component's solo count, and leaves the shared components' shard rollups
// byte-identical (shard_trace_line). An engine-only corollary that needs no
// closed form: with M measured as the residual shard's own count,
//   count(extended) * M(base) == count(base) * solo * M(extended).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "benchutil/corpus.hpp"
#include "decompose/components.hpp"
#include "decompose/sharded.hpp"
#include "gentrius/serial.hpp"
#include "testutil.hpp"

namespace gentrius {
namespace {

using core::Options;
using core::Result;
using core::ShardStats;
using core::StopReason;

struct SplitInstance {
  std::vector<phylo::Tree> base;      // constraints of all but the last block
  std::vector<phylo::Tree> extra;     // constraints of the last block
  std::vector<phylo::Tree> extended;  // everything
};

// One generator call with k+1 blocks, then split off the block holding the
// highest taxon ids. Using a single dataset keeps the shared constraints
// bit-identical between the base and extended runs.
SplitInstance make_split_instance(std::uint64_t seed, std::size_t base_comps) {
  benchutil::MultiComponentParams p;
  p.n_components = base_comps + 1;
  p.min_taxa_per_component = 4;
  p.max_taxa_per_component = 5;
  p.loci_per_component = 2;
  p.seed = seed;
  const auto ds = benchutil::make_multi_component(p);
  const auto split = decompose::analyze_components(ds.constraints);

  SplitInstance out;
  out.extended = ds.constraints;
  // Components are in canonical (ascending first-taxon) order and the
  // generator assigns the last block the highest ids, so the last component
  // is the appended one; everything before it is the base.
  const auto& last = split.components.back();
  std::vector<bool> is_extra(ds.constraints.size(), false);
  for (const std::size_t c : last.constraint_indices) is_extra[c] = true;
  for (std::size_t c = 0; c < ds.constraints.size(); ++c)
    (is_extra[c] ? out.extra : out.base).push_back(ds.constraints[c]);
  return out;
}

Result run_sharded_collecting(const std::vector<phylo::Tree>& constraints) {
  Options opts;
  opts.collect_trees = true;
  return decompose::run_sharded(constraints, opts);
}

std::uint64_t component_product(const Result& r) {
  std::uint64_t product = 1;
  for (const ShardStats& s : r.shards)
    if (s.kind == ShardStats::Kind::kComponent) product *= s.stand_trees;
  return product;
}

TEST(Metamorphic, AppendingIndependentComponentMultipliesCount) {
  // Extending past two blocks is off the table for a unit test: the
  // interleaving factor M of a third 4-5-taxon block alone is in the tens
  // of millions, so the extended instance could no longer be enumerated to
  // completion. One block -> two blocks exercises the full relation.
  for (std::uint64_t seed : {2u, 13u, 29u, 47u, 61u, 83u}) {
    for (std::size_t base_comps : {1u}) {
      const auto inst = make_split_instance(seed, base_comps);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " base_comps=" + std::to_string(base_comps));
      ASSERT_FALSE(inst.extra.empty());

      const Result base = run_sharded_collecting(inst.base);
      const Result ext = run_sharded_collecting(inst.extended);
      const Result solo = core::run_serial(inst.extra, Options{});
      ASSERT_EQ(base.reason, StopReason::kCompleted);
      ASSERT_EQ(ext.reason, StopReason::kCompleted);

      // Component-product relation.
      EXPECT_EQ(component_product(ext),
                component_product(base) * solo.stand_trees);

      // Engine-only full-count relation (M measured, not closed-form).
      const std::uint64_t m_base = base.shards.back().stand_trees;
      const std::uint64_t m_ext = ext.shards.back().stand_trees;
      EXPECT_EQ(ext.stand_trees * m_base,
                base.stand_trees * solo.stand_trees * m_ext);

      // Shared shards: the base run's component rollups reappear verbatim
      // at the front of the extended run — byte-identical trace lines.
      ASSERT_EQ(ext.shards.size(), base.shards.size() + 1);
      for (std::size_t i = 0; i + 1 < base.shards.size(); ++i)
        EXPECT_EQ(decompose::shard_trace_line(ext.shards[i]),
                  decompose::shard_trace_line(base.shards[i]));
    }
  }
}

TEST(Metamorphic, ShardTraceLinesStableAcrossBackends) {
  // The integer rollup of a shard is a function of the instance, not of the
  // backend that enumerated it: serial and virtual sharded runs must emit
  // identical trace lines for every shard.
  benchutil::MultiComponentParams p;
  p.n_components = 2;
  p.seed = 17;
  const auto ds = benchutil::make_multi_component(p);

  const Result serial = decompose::run_sharded(ds.constraints, Options{});
  const Result virt = decompose::run_sharded(
      ds.constraints, Options{},
      decompose_test::on_backend(decompose::ShardBackend::kVirtual, 4));
  ASSERT_EQ(serial.shards.size(), virt.shards.size());
  for (std::size_t i = 0; i < serial.shards.size(); ++i)
    EXPECT_EQ(decompose::shard_trace_line(serial.shards[i]),
              decompose::shard_trace_line(virt.shards[i]));
}

}  // namespace
}  // namespace gentrius
