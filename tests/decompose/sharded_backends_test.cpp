// Backend-agreement tests for the sharded driver: the real thread pool and
// the virtual-time simulator must reproduce the serial sharded results
// exactly (counts, stand sets, per-shard rollups). Labeled "parallel" so
// the TSan preset exercises the pool-backed sharding path.
#include <gtest/gtest.h>

#include <cstdint>

#include "benchutil/corpus.hpp"
#include "decompose/sharded.hpp"
#include "gentrius/problem.hpp"
#include "gentrius/serial.hpp"
#include "parallel/pool.hpp"
#include "support/error.hpp"
#include "testutil.hpp"

namespace gentrius {
namespace {

using core::Options;
using core::Result;
using core::StopReason;
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

Options sharded_collecting() {
  Options o;
  o.collect_trees = true;
  o.decompose = core::Decompose::kComponents;
  return o;
}

TEST(ShardedBackends, PoolMatchesSerial) {
  for (std::uint64_t seed = 1; seed <= kBackendSeeds; ++seed) {
    const auto ds = benchutil::make_multi_component(small_instance(seed));
    SCOPED_TRACE(ds.name);
    Result serial =
        decompose::run_serial(ds.constraints, sharded_collecting());
    Result pooled =
        decompose::run_parallel(ds.constraints, sharded_collecting(), 2);
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
    Result serial =
        decompose::run_serial(ds.constraints, sharded_collecting());
    Result virt =
        decompose::run_virtual(ds.constraints, sharded_collecting(), 4);
    EXPECT_EQ(virt.stand_trees, serial.stand_trees);
    EXPECT_EQ(sorted_trees(virt), sorted_trees(serial));
    EXPECT_GT(virt.virtual_makespan, 0.0);
    for (const auto& s : virt.shards) EXPECT_GT(s.virtual_makespan, 0.0);
  }
}

TEST(ShardedBackends, ConcurrentScheduleOverlapsShards) {
  const auto ds = benchutil::make_multi_component(small_instance(2));
  Options opts = sharded_collecting();
  const Result seq = decompose::run_virtual(
      ds.constraints, opts, 2, {}, decompose::ShardSchedule::kSequential);
  const Result conc = decompose::run_virtual(
      ds.constraints, opts, 2, {}, decompose::ShardSchedule::kConcurrent);
  EXPECT_EQ(seq.stand_trees, conc.stand_trees);
  // One machine per shard can only be faster than running them back to
  // back; with >= 2 shards of real work it is strictly faster.
  EXPECT_LT(conc.virtual_makespan, seq.virtual_makespan);
}

TEST(ShardedBackends, DecomposeRejectedByMonolithicDrivers) {
  const auto ds = benchutil::make_multi_component(small_instance(1));
  Options opts;
  opts.decompose = core::Decompose::kComponents;
  EXPECT_THROW(core::run_serial(ds.constraints, opts), support::InvalidInput);
  const auto problem = core::build_problem(ds.constraints, opts);
  EXPECT_THROW(parallel::run_parallel(problem, opts, 2),
               support::InvalidInput);
  EXPECT_THROW(vthread::run_virtual(problem, opts, 2),
               support::InvalidInput);
}

}  // namespace
}  // namespace gentrius
