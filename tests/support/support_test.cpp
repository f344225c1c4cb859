#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "support/bitset.hpp"
#include "support/key_map.hpp"
#include "support/rng.hpp"
#include "support/spin_wait.hpp"

namespace gentrius::support {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto w = v;
  rng.shuffle(w);
  auto sorted = w;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.range(-3, 3);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 3);
    lo |= (x == -3);
    hi |= (x == 3);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Bitset, SetTestResetCount) {
  Bitset b(130);
  EXPECT_TRUE(b.empty());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_TRUE(b.test(64));
  EXPECT_FALSE(b.test(63));
  b.reset(64);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.first(), 0u);
}

TEST(Bitset, IntersectionAndSubtract) {
  Bitset a(100), b(100);
  for (std::size_t i = 0; i < 100; i += 2) a.set(i);
  for (std::size_t i = 0; i < 100; i += 3) b.set(i);
  EXPECT_EQ(a.intersection_count(b), 17u);  // multiples of 6 in [0,100)
  EXPECT_EQ(a.first_common(b), 0u);
  Bitset c = a;
  c.subtract(b);
  EXPECT_EQ(c.count(), a.count() - 17u);
  c &= b;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.first_common(b), 100u);
}

TEST(Bitset, ForEachAscending) {
  Bitset b(200);
  const std::vector<std::uint32_t> expected{3, 77, 128, 199};
  for (const auto i : expected) b.set(i);
  EXPECT_EQ(b.to_indices(), expected);
}

TEST(KeyMap, InsertGetClear) {
  KeyMap m(4);
  m[10] = 3;
  ++m[10];
  m[99999] = 7;
  EXPECT_EQ(m.get(10), 4u);
  EXPECT_EQ(m.get(99999), 7u);
  EXPECT_EQ(m.get(5, 42), 42u);
  EXPECT_EQ(m.size(), 2u);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.contains(10));
  EXPECT_EQ(m.get(10), 0u);
}

TEST(KeyMap, GrowsBeyondInitialCapacity) {
  KeyMap m(2);
  for (std::uint64_t k = 1; k <= 1000; ++k) m[k * 0x9e3779b9ULL] = static_cast<std::uint32_t>(k);
  for (std::uint64_t k = 1; k <= 1000; ++k)
    EXPECT_EQ(m.get(k * 0x9e3779b9ULL), k);
}

TEST(KeyMap, CopyIsIndependent) {
  KeyMap a(4);
  a[1] = 10;
  a[2] = 20;
  KeyMap b = a;
  b[1] = 11;
  for (std::uint64_t k = 100; k < 200; ++k) b[k] = 1;  // b grows
  a.clear();
  a[3] = 30;
  EXPECT_EQ(b.get(1), 11u);
  EXPECT_EQ(b.get(2), 20u);
  EXPECT_FALSE(b.contains(3));
  EXPECT_EQ(b.size(), 102u);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_FALSE(a.contains(1));
  EXPECT_FALSE(a.contains(150));
}

TEST(KeyMap, EpochClearSurvivesManyCycles) {
  KeyMap m(8);
  for (int cycle = 0; cycle < 10000; ++cycle) {
    m.clear();
    m[static_cast<std::uint64_t>(cycle)] = 1;
    EXPECT_EQ(m.size(), 1u);
    EXPECT_TRUE(m.contains(static_cast<std::uint64_t>(cycle)));
    EXPECT_FALSE(m.contains(static_cast<std::uint64_t>(cycle) + 1'000'000));
  }
}

TEST(SpinWait, EndsAtTheFirstTrueAnswer) {
  int polls = 0;
  spin_until([&polls] { return ++polls == 3; });
  EXPECT_EQ(polls, 3);
}

TEST(SpinWait, GivesUpAfterTheBound) {
  int polls = 0;
  spin_until([&polls] {
    ++polls;
    return false;
  });
  EXPECT_EQ(polls, kSpinIterations);
}

// A run spins only when its threads plus the waiting caller fit the
// machine; at or above the hardware threads every wait blocks at once.
TEST(SpinWait, OnlyRunsThatLeaveACpuForTheCallerSpin) {
  const std::size_t cpus = std::thread::hardware_concurrency();
  EXPECT_FALSE(spin_fits(cpus));
  EXPECT_FALSE(spin_fits(cpus + 1));
  if (cpus >= 2) {
    EXPECT_TRUE(spin_fits(cpus - 1));
  }
}

static_assert(sizeof(PolledAtomic<bool>) == kCacheLine &&
                  alignof(PolledAtomic<std::size_t>) == kCacheLine,
              "a polled atomic must have its cache line to itself");

}  // namespace
}  // namespace gentrius::support
