// Option combinations no driver can honor: every driver calls
// core::validate_options before running, so its rules are pinned here once
// instead of per driver. The incremental session's own rules are pinned in
// tests/incremental/session_differential_test.cpp.
#include <gtest/gtest.h>

#include "gentrius/options.hpp"
#include "support/error.hpp"

namespace gentrius::core {
namespace {

TEST(ValidateOptions, DefaultsPass) {
  EXPECT_NO_THROW(validate_options(Options{}));
}

TEST(ValidateOptions, ZeroFlushBatchRejectedEverywhere) {
  Options o;
  o.tree_flush_batch = 0;
  EXPECT_THROW(validate_options(o), support::InvalidInput);
  o = Options{};
  o.state_flush_batch = 0;
  EXPECT_THROW(validate_options(o), support::InvalidInput);
  o = Options{};
  o.dead_end_flush_batch = 0;
  EXPECT_THROW(validate_options(o), support::InvalidInput);
}

TEST(ValidateOptions, ExplicitOrderAndShuffleAreExclusive) {
  Options o;
  o.insertion_order = {2, 1, 0};
  EXPECT_NO_THROW(validate_options(o));
  o.shuffle_seed = 7;
  EXPECT_THROW(validate_options(o), support::InvalidInput);
  o.insertion_order.clear();
  EXPECT_NO_THROW(validate_options(o));
}

TEST(CacheStats, MergeAccumulates) {
  CacheStats a;
  a.hits = 2;
  a.misses = 1;
  a.reused_states = 100;
  CacheStats b;
  b.hits = 3;
  b.evictions = 4;
  b.recomputed_components = 5;
  a.merge(b);
  EXPECT_EQ(a.hits, 5u);
  EXPECT_EQ(a.misses, 1u);
  EXPECT_EQ(a.evictions, 4u);
  EXPECT_EQ(a.recomputed_components, 5u);
  EXPECT_EQ(a.reused_states, 100u);
}

}  // namespace
}  // namespace gentrius::core
