#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "gentrius/counters.hpp"

namespace gentrius::core {
namespace {

TEST(CounterSink, LimitsFireAndFirstReasonWins) {
  StoppingRules rules;
  rules.max_stand_trees = 100;
  rules.max_states = 1000;
  CounterSink sink(rules);
  EXPECT_FALSE(sink.stop_requested());
  sink.add_stand_trees(99);
  EXPECT_FALSE(sink.stop_requested());
  sink.add_stand_trees(1);
  EXPECT_TRUE(sink.stop_requested());
  EXPECT_EQ(sink.reason(), StopReason::kTreeLimit);
  // A later state-limit crossing does not override the first reason.
  sink.add_states(5000);
  EXPECT_EQ(sink.reason(), StopReason::kTreeLimit);
  EXPECT_EQ(sink.stand_trees(), 100u);
  EXPECT_EQ(sink.states(), 5000u);
}

TEST(CounterSink, TimeRule) {
  StoppingRules rules;
  rules.max_seconds = 0.0;
  CounterSink sink(rules);
  EXPECT_FALSE(sink.stop_requested());
  sink.check_time();
  EXPECT_TRUE(sink.stop_requested());
  EXPECT_EQ(sink.reason(), StopReason::kTimeLimit);
}

TEST(CounterSink, CompletedWhenNothingFires) {
  CounterSink sink({});
  sink.add_stand_trees(10);
  sink.add_states(10);
  sink.add_dead_ends(10);
  EXPECT_FALSE(sink.stop_requested());
  EXPECT_EQ(sink.reason(), StopReason::kCompleted);
}

TEST(LocalCounters, BatchesAreHonored) {
  CounterSink sink({});
  LocalCounters local(sink, /*tree=*/4, /*state=*/8, /*dead=*/2);
  for (int i = 0; i < 3; ++i) local.count_stand_tree();
  EXPECT_EQ(sink.stand_trees(), 0u);  // below batch: nothing published
  local.count_stand_tree();
  EXPECT_EQ(sink.stand_trees(), 4u);  // batch boundary: published
  for (int i = 0; i < 7; ++i) local.count_state();
  EXPECT_EQ(sink.states(), 0u);
  local.count_state();
  EXPECT_EQ(sink.states(), 8u);
  local.count_dead_end();
  EXPECT_EQ(sink.dead_ends(), 0u);
  local.count_dead_end();
  EXPECT_EQ(sink.dead_ends(), 2u);
  EXPECT_EQ(local.flush_count(), 3u);
}

TEST(LocalCounters, FlushAllPublishesRemainders) {
  CounterSink sink({});
  LocalCounters local(sink, 1024, 8192, 1024);
  for (int i = 0; i < 5; ++i) local.count_stand_tree();
  for (int i = 0; i < 7; ++i) local.count_state();
  local.count_dead_end();
  local.flush_all();
  EXPECT_EQ(sink.stand_trees(), 5u);
  EXPECT_EQ(sink.states(), 7u);
  EXPECT_EQ(sink.dead_ends(), 1u);
}

TEST(LocalCounters, BatchZeroBehavesAsOne) {
  CounterSink sink({});
  LocalCounters local(sink, 0, 0, 0);
  local.count_stand_tree();
  EXPECT_EQ(sink.stand_trees(), 1u);
}

// The clock cadence is pinned by its effect: under an expired clock
// (max_seconds = 0) the stop arrives on exactly the flush that reads it.

TEST(LocalCounters, DefaultPeriodChecksTimeEveryFlush) {
  // The documented granularity: one clock read per flush, whichever of the
  // three sites flushes. Counts below the batch publish nothing and read no
  // clock; the flush that reads it still publishes its whole batch.
  StoppingRules rules;
  rules.max_seconds = 0.0;
  using Count = void (LocalCounters::*)();
  using Total = std::uint64_t (CounterSink::*)() const;
  const std::pair<Count, Total> sites[] = {
      {&LocalCounters::count_stand_tree, &CounterSink::stand_trees},
      {&LocalCounters::count_state, &CounterSink::states},
      {&LocalCounters::count_dead_end, &CounterSink::dead_ends}};
  for (const auto& [count, total] : sites) {
    CounterSink sink(rules);
    LocalCounters local(sink, /*tree=*/2, /*state=*/2, /*dead=*/2);
    (local.*count)();
    EXPECT_FALSE(sink.stop_requested());
    (local.*count)();  // flush 1
    EXPECT_TRUE(sink.stop_requested());
    EXPECT_EQ(sink.reason(), StopReason::kTimeLimit);
    EXPECT_EQ((sink.*total)(), 2u);
    EXPECT_EQ(local.flush_count(), 1u);
  }
}

TEST(LocalCounters, TimeCheckPeriodThrottlesClockReads) {
  // Period K: the clock is read only on every K-th flush, across all three
  // flush sites combined. Counter totals and flush counts are unchanged.
  StoppingRules rules;
  rules.max_seconds = 0.0;
  CounterSink sink(rules);
  LocalCounters local(sink, 1, 1, 1, /*time_check_period=*/3);
  local.count_state();       // flush 1
  local.count_stand_tree();  // flush 2
  EXPECT_FALSE(sink.stop_requested());
  local.count_dead_end();  // flush 3 reads the clock
  EXPECT_TRUE(sink.stop_requested());
  EXPECT_EQ(sink.reason(), StopReason::kTimeLimit);
  EXPECT_EQ(local.flush_count(), 3u);
  EXPECT_EQ(sink.states(), 1u);  // publication itself is untouched
  EXPECT_EQ(sink.stand_trees(), 1u);
  EXPECT_EQ(sink.dead_ends(), 1u);
}

TEST(LocalCounters, ThrottledTimeRuleStillFires) {
  StoppingRules rules;
  rules.max_seconds = 0.0;  // an expired clock: first read must stop the run
  CounterSink sink(rules);
  LocalCounters local(sink, 1, 1, 1, /*time_check_period=*/4);
  for (int i = 0; i < 3; ++i) {
    local.count_state();
    EXPECT_FALSE(sink.stop_requested()) << "flush " << i + 1;
  }
  local.count_state();  // 4th flush reads the clock
  EXPECT_TRUE(sink.stop_requested());
  EXPECT_EQ(sink.reason(), StopReason::kTimeLimit);
}

TEST(LocalCounters, TimeCheckPeriodZeroBehavesAsOne) {
  StoppingRules rules;
  rules.max_seconds = 0.0;
  CounterSink sink(rules);
  LocalCounters local(sink, 1, 1, 1, /*time_check_period=*/0);
  local.count_state();  // flush 1 reads the clock
  EXPECT_TRUE(sink.stop_requested());
  EXPECT_EQ(sink.reason(), StopReason::kTimeLimit);
  EXPECT_EQ(sink.states(), 1u);
}

namespace {
class CountingWaker final : public StopWaker {
 public:
  void wake_all() override { ++calls; }
  int calls = 0;
};
}  // namespace

TEST(CounterSink, RequestStopInvokesRegisteredWaker) {
  CounterSink sink({});
  CountingWaker waker;
  sink.set_stop_waker(&waker);
  sink.request_stop(StopReason::kTreeLimit);
  EXPECT_EQ(waker.calls, 1);
  sink.request_stop(StopReason::kStateLimit);  // repeated stops re-wake
  EXPECT_EQ(waker.calls, 2);
  EXPECT_EQ(sink.reason(), StopReason::kTreeLimit);  // first reason kept
}

TEST(CounterSink, ClearedWakerIsNotInvoked) {
  CounterSink sink({});
  CountingWaker waker;
  sink.set_stop_waker(&waker);
  sink.set_stop_waker(nullptr);
  sink.request_stop(StopReason::kTreeLimit);
  EXPECT_EQ(waker.calls, 0);
}

TEST(CounterSink, StoppingRuleCrossingFiresWaker) {
  // The satellite regression: a limit crossed via a counter flush must ring
  // the waker so parked consumers unblock without a second stop observer.
  StoppingRules rules;
  rules.max_states = 10;
  CounterSink sink(rules);
  CountingWaker waker;
  sink.set_stop_waker(&waker);
  sink.add_states(10);
  EXPECT_TRUE(sink.stop_requested());
  EXPECT_EQ(waker.calls, 1);
}

}  // namespace
}  // namespace gentrius::core
