// ResultCache unit tests: LRU eviction order, the byte-compare collision
// guard, replace-in-place, and the capacity-0 kill switch.
#include <gtest/gtest.h>

#include <string>

#include "incremental/cache.hpp"
#include "support/fingerprint.hpp"

namespace gentrius::incremental {
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
    const std::string enc = "e" + std::to_string(i);
    cache.insert(fp(enc), entry_for(enc, i));
    EXPECT_LE(cache.size(), 3u);
  }
  EXPECT_EQ(cache.evictions(), 47u);
  // The three most recent survive.
  EXPECT_NE(cache.find(fp("e49"), "e49"), nullptr);
  EXPECT_NE(cache.find(fp("e47"), "e47"), nullptr);
  EXPECT_EQ(cache.find(fp("e0"), "e0"), nullptr);
}

}  // namespace
}  // namespace gentrius::incremental
