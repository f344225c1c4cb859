// Backend-agreement tests for the sharded driver: the real thread pool and
// the virtual-time simulator must reproduce the serial sharded results
// exactly (counts, stand sets, per-shard rollups). Labeled "parallel" so
// the TSan preset exercises the pool-backed sharding path.
#include <gtest/gtest.h>

#include <cstdint>

#include "benchutil/corpus.hpp"
#include "decompose/sharded.hpp"
#include "testutil.hpp"

namespace gentrius {
namespace {

using core::Options;
using core::Result;
using core::StopReason;
using decompose::ShardBackend;
using decompose_test::on_backend;
using decompose_test::sorted_trees;

#if defined(GENTRIUS_SANITIZED_BUILD)
constexpr std::uint64_t kBackendSeeds = 3;
#else
constexpr std::uint64_t kBackendSeeds = 8;
#endif

benchutil::MultiComponentParams small_instance(std::uint64_t seed) {
  benchutil::MultiComponentParams p;
  p.n_components = 2;
  p.min_taxa_per_component = 4;
  p.max_taxa_per_component = 5;
  p.loci_per_component = 2;
  p.seed = seed * 101 + 13;
  return p;
}

Options collecting() {
  Options o;
  o.collect_trees = true;
  return o;
}

TEST(ShardedBackends, PoolMatchesSerial) {
  for (std::uint64_t seed = 1; seed <= kBackendSeeds; ++seed) {
    const auto ds = benchutil::make_multi_component(small_instance(seed));
    SCOPED_TRACE(ds.name);
    Result serial = decompose::run_sharded(ds.constraints, collecting());
    Result pooled = decompose::run_sharded(ds.constraints, collecting(),
                                           on_backend(ShardBackend::kPool, 2));
    ASSERT_EQ(pooled.reason, StopReason::kCompleted);
    EXPECT_EQ(pooled.stand_trees, serial.stand_trees);
    EXPECT_EQ(sorted_trees(pooled), sorted_trees(serial));
    ASSERT_EQ(pooled.shards.size(), serial.shards.size());
    for (std::size_t i = 0; i < serial.shards.size(); ++i)
      EXPECT_EQ(decompose::shard_trace_line(pooled.shards[i]),
                decompose::shard_trace_line(serial.shards[i]));
  }
}

TEST(ShardedBackends, VirtualMatchesSerialAndAccountsTime) {
  for (std::uint64_t seed = 1; seed <= kBackendSeeds; ++seed) {
    const auto ds = benchutil::make_multi_component(small_instance(seed));
    SCOPED_TRACE(ds.name);
    Result serial = decompose::run_sharded(ds.constraints, collecting());
    Result virt = decompose::run_sharded(
        ds.constraints, collecting(), on_backend(ShardBackend::kVirtual, 4));
    EXPECT_EQ(virt.stand_trees, serial.stand_trees);
    EXPECT_EQ(sorted_trees(virt), sorted_trees(serial));
    EXPECT_GT(virt.virtual_makespan, 0.0);
    for (const auto& s : virt.shards) EXPECT_GT(s.virtual_makespan, 0.0);
  }
}

TEST(ShardedBackends, VirtualMakespanSumsExecutedShards) {
  // Shards run back to back on one machine: the sharded makespan is the sum
  // over executed shards of dispatch + shard makespan + merge, and a run
  // served entirely from the cache executes nothing.
  const auto ds = benchutil::make_multi_component(small_instance(2));
  const auto run = on_backend(ShardBackend::kVirtual, 2);
  decompose::ResultCache cache(16);
  const Result first =
      decompose::run_sharded(ds.constraints, Options{}, run, &cache);
  ASSERT_EQ(first.cache.hits, 0u);
  double expected = 0.0;
  for (const auto& s : first.shards)
    expected += run.costs.shard_dispatch_cost + s.virtual_makespan +
                run.costs.shard_merge_cost;
  EXPECT_DOUBLE_EQ(first.virtual_makespan, expected);

  const Result again =
      decompose::run_sharded(ds.constraints, Options{}, run, &cache);
  EXPECT_EQ(again.cache.misses, 0u);
  EXPECT_EQ(again.virtual_makespan, 0.0);
}

}  // namespace
}  // namespace gentrius
