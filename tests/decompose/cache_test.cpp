// ResultCache unit tests: LRU eviction order, the byte-compare collision
// guard, replace-in-place, and the capacity-0 kill switch; and the rule
// that run_sharded caches only shards that no stopping rule cut short.
#include <gtest/gtest.h>

#include <string>

#include "benchutil/corpus.hpp"
#include "decompose/cache.hpp"
#include "decompose/sharded.hpp"
#include "support/fingerprint.hpp"

namespace gentrius::decompose {
namespace {

CacheEntry entry_for(const std::string& encoding, std::uint64_t count) {
  CacheEntry e;
  e.encoding = encoding;
  e.stand_trees = count;
  return e;
}

support::Fingerprint fp(const std::string& encoding) {
  return support::fingerprint_bytes(encoding);
}

TEST(ResultCache, InsertAndFind) {
  ResultCache cache(4);
  EXPECT_EQ(cache.find(fp("a"), "a"), nullptr);
  cache.insert(fp("a"), entry_for("a", 3));
  const auto hit = cache.find(fp("a"), "a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->stand_trees, 3u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, CollisionGuardComparesEncodings) {
  ResultCache cache(4);
  cache.insert(fp("a"), entry_for("a", 3));
  // Same fingerprint, different bytes: must miss — a collision costs a
  // recomputation, never a wrong answer.
  EXPECT_EQ(cache.find(fp("a"), "b"), nullptr);
  EXPECT_NE(cache.find(fp("a"), "a"), nullptr);
}

TEST(ResultCache, LruEvictionPrefersStalest) {
  ResultCache cache(2);
  cache.insert(fp("a"), entry_for("a", 1));
  cache.insert(fp("b"), entry_for("b", 2));
  ASSERT_NE(cache.find(fp("a"), "a"), nullptr);  // refresh a; b is stalest
  cache.insert(fp("c"), entry_for("c", 3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(fp("b"), "b"), nullptr);
  EXPECT_NE(cache.find(fp("a"), "a"), nullptr);
  EXPECT_NE(cache.find(fp("c"), "c"), nullptr);
}

TEST(ResultCache, ReplaceInPlaceDoesNotEvict) {
  ResultCache cache(2);
  cache.insert(fp("a"), entry_for("a", 1));
  cache.insert(fp("b"), entry_for("b", 2));
  cache.insert(fp("a"), entry_for("a", 7));  // refresh, not a new slot
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  const auto hit = cache.find(fp("a"), "a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->stand_trees, 7u);
  EXPECT_NE(cache.find(fp("b"), "b"), nullptr);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.insert(fp("a"), entry_for("a", 1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(fp("a"), "a"), nullptr);
}

TEST(ResultCache, EvictionChurnKeepsBound) {
  ResultCache cache(3);
  for (int i = 0; i < 50; ++i) {
    std::string enc = "e";
    enc += std::to_string(i);
    cache.insert(fp(enc), entry_for(enc, i));
    EXPECT_LE(cache.size(), 3u);
  }
  EXPECT_EQ(cache.evictions(), 47u);
  // The three most recent survive.
  EXPECT_NE(cache.find(fp("e49"), "e49"), nullptr);
  EXPECT_NE(cache.find(fp("e47"), "e47"), nullptr);
  EXPECT_EQ(cache.find(fp("e0"), "e0"), nullptr);
}

// A state limit between the two components' sizes lets the smaller one
// finish and cuts the larger one short. A later run without the limit must
// reuse the finished component, enumerate the cut one again, and count
// what an uncached run counts.
TEST(ShardedCache, StoresOnlyFinishedShards) {
  benchutil::MultiComponentParams p;
  p.n_components = 2;
  p.min_taxa_per_component = 4;
  p.max_taxa_per_component = 5;
  p.loci_per_component = 2;
  p.seed = 8;  // components of 3 and 1 states
  const auto ds = benchutil::make_multi_component(p);
  const core::Options opts{};
  const core::Result reference = run_sharded(ds.constraints, opts);
  ASSERT_EQ(reference.reason, core::StopReason::kCompleted);
  ASSERT_EQ(reference.shards.size(), 3u);  // two components, the residual
  const std::uint64_t states0 = reference.shards[0].intermediate_states;
  const std::uint64_t states1 = reference.shards[1].intermediate_states;
  ASSERT_GT(states0 > states1 ? states0 - states1 : states1 - states0, 1u);
  const std::size_t small = states0 < states1 ? 0 : 1;
  const std::size_t large = 1 - small;

  ResultCache cache(16);
  core::Options limited = opts;
  limited.stop.max_states = (states0 + states1) / 2;
  const core::Result cut = run_sharded(ds.constraints, limited, {}, &cache);
  ASSERT_EQ(cut.shards[small].reason, core::StopReason::kCompleted);
  ASSERT_EQ(cut.shards[large].reason, core::StopReason::kStateLimit);

  const core::Result again = run_sharded(ds.constraints, opts, {}, &cache);
  EXPECT_TRUE(again.shards[small].reused);
  EXPECT_FALSE(again.shards[large].reused);
  EXPECT_EQ(again.shards[large].reason, core::StopReason::kCompleted);
  EXPECT_EQ(again.reason, core::StopReason::kCompleted);
  EXPECT_EQ(again.stand_trees, reference.stand_trees);
}

// A run with no stopping rule caches every shard it enumerates; a second
// run on the same cache expands no state and counts the same stand.
TEST(ShardedCache, SecondRunReusesEveryShard) {
  benchutil::MultiComponentParams p;
  p.n_components = 2;
  p.min_taxa_per_component = 4;
  p.max_taxa_per_component = 5;
  p.loci_per_component = 2;
  p.seed = 8;
  const auto ds = benchutil::make_multi_component(p);
  const core::Options opts{};
  ResultCache cache(16);
  const core::Result first = run_sharded(ds.constraints, opts, {}, &cache);
  ASSERT_EQ(first.reason, core::StopReason::kCompleted);
  EXPECT_EQ(first.cache.hits, 0u);
  EXPECT_EQ(first.cache.recomputed_components, 2u);

  const core::Result again = run_sharded(ds.constraints, opts, {}, &cache);
  EXPECT_EQ(again.reason, core::StopReason::kCompleted);
  EXPECT_EQ(again.stand_trees, first.stand_trees);
  EXPECT_EQ(again.cache.misses, 0u);
  EXPECT_EQ(again.cache.reused_components, 2u);
  EXPECT_EQ(again.cache.recomputed_states, 0u);
  EXPECT_EQ(again.cache.reused_states, first.cache.recomputed_states);
  ASSERT_EQ(again.shards.size(), first.shards.size());
  for (std::size_t i = 0; i < again.shards.size(); ++i) {
    if (again.shards[i].kind != core::ShardStats::Kind::kComponent) continue;
    EXPECT_TRUE(again.shards[i].reused) << "shard " << i;
    EXPECT_EQ(again.shards[i].stand_trees, first.shards[i].stand_trees)
        << "shard " << i;
  }
}

// count_exact follows the component sizes, not the path a shard took: a
// run served entirely from the cache flags the counts the run that filled
// it flagged, on two 6-taxon blocks, and on a 4- and 5-taxon pair does not.
TEST(ShardedCache, HitsKeepTheCountExactFlag) {
  for (const std::size_t min_taxa : {4, 6}) {
    benchutil::MultiComponentParams p;
    p.n_components = 2;
    p.min_taxa_per_component = min_taxa;
    p.max_taxa_per_component = min_taxa == 4 ? 5 : 6;
    p.loci_per_component = 3;
    p.missing_fraction = 0.4;
    p.seed = 3;
    const auto ds = benchutil::make_multi_component(p);
    SCOPED_TRACE(ds.name);
    ResultCache cache(16);
    const core::Result first = run_sharded(ds.constraints, {}, {}, &cache);
    ASSERT_EQ(first.reason, core::StopReason::kCompleted);
    EXPECT_EQ(first.count_exact, min_taxa == 4);
    const core::Result again = run_sharded(ds.constraints, {}, {}, &cache);
    EXPECT_EQ(again.cache.misses, 0u);
    EXPECT_EQ(again.stand_trees, first.stand_trees);
    EXPECT_EQ(again.count_exact, first.count_exact);
  }
}

// A tree limit cuts shards short too: the shard it stops is not stored,
// and a later run without the limit enumerates it again.
TEST(ShardedCache, TreeLimitedShardIsNotStored) {
  benchutil::MultiComponentParams p;
  p.n_components = 2;
  p.min_taxa_per_component = 4;
  p.max_taxa_per_component = 5;
  p.loci_per_component = 2;
  p.seed = 8;
  const auto ds = benchutil::make_multi_component(p);
  const core::Options opts{};
  const core::Result reference = run_sharded(ds.constraints, opts);
  ASSERT_EQ(reference.reason, core::StopReason::kCompleted);
  const std::uint64_t trees0 = reference.shards[0].stand_trees;
  const std::uint64_t trees1 = reference.shards[1].stand_trees;
  ASSERT_GT(trees0 > trees1 ? trees0 - trees1 : trees1 - trees0, 1u);
  const std::size_t small = trees0 < trees1 ? 0 : 1;
  const std::size_t large = 1 - small;

  ResultCache cache(16);
  core::Options limited = opts;
  limited.stop.max_stand_trees = (trees0 + trees1) / 2;
  const core::Result cut = run_sharded(ds.constraints, limited, {}, &cache);
  ASSERT_EQ(cut.shards[small].reason, core::StopReason::kCompleted);
  ASSERT_EQ(cut.shards[large].reason, core::StopReason::kTreeLimit);

  const core::Result again = run_sharded(ds.constraints, opts, {}, &cache);
  EXPECT_TRUE(again.shards[small].reused);
  EXPECT_FALSE(again.shards[large].reused);
  EXPECT_EQ(again.shards[large].stand_trees,
            reference.shards[large].stand_trees);
  EXPECT_EQ(again.reason, core::StopReason::kCompleted);
  EXPECT_EQ(again.stand_trees, reference.stand_trees);
}

}  // namespace
}  // namespace gentrius::decompose
