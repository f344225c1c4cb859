#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gentrius/counters.hpp"

namespace gentrius::core {
namespace {

TEST(CounterSink, LimitsFireAndFirstReasonWins) {
  StoppingRules rules;
  rules.max_stand_trees = 100;
  rules.max_states = 1000;
  CounterSink sink(rules, /*workers=*/1);
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
  CounterSink sink(rules, /*workers=*/1);
  EXPECT_FALSE(sink.stop_requested());
  sink.check_time();
  EXPECT_TRUE(sink.stop_requested());
  EXPECT_EQ(sink.reason(), StopReason::kTimeLimit);
}

TEST(CounterSink, CompletedWhenNothingFires) {
  CounterSink sink({}, /*workers=*/1);
  sink.add_stand_trees(10);
  sink.add_states(10);
  sink.add_dead_ends(10);
  EXPECT_FALSE(sink.stop_requested());
  EXPECT_EQ(sink.reason(), StopReason::kCompleted);
}

// The batch tests use a shared sink, where only the batches place flushes.

TEST(LocalCounters, BatchesAreHonored) {
  CounterSink sink({}, /*workers=*/2);
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
  CounterSink sink({}, /*workers=*/2);
  LocalCounters local(sink, 1024, 8192, 1024);
  for (int i = 0; i < 5; ++i) local.count_stand_tree();
  for (int i = 0; i < 7; ++i) local.count_state();
  local.count_dead_end();
  local.flush_all();
  EXPECT_EQ(sink.stand_trees(), 5u);
  EXPECT_EQ(sink.states(), 7u);
  EXPECT_EQ(sink.dead_ends(), 1u);
}

TEST(LocalCounters, FlushAllReadsNoClock) {
  // A run that has done all its work is complete, even past its time.
  StoppingRules rules;
  rules.max_seconds = 0.0;
  for (const std::size_t workers : {1, 2}) {
    CounterSink sink(rules, workers);
    LocalCounters local(sink, 1024, 8192, 1024);
    local.count_stand_tree();
    local.count_state();
    local.count_dead_end();
    local.flush_all();
    EXPECT_EQ(local.flush_count(), 3u);
    EXPECT_FALSE(sink.stop_requested());
    EXPECT_EQ(sink.reason(), StopReason::kCompleted);
  }
}

TEST(LocalCounters, BatchZeroBehavesAsOne) {
  CounterSink sink({}, /*workers=*/2);
  LocalCounters local(sink, 0, 0, 0);
  local.count_stand_tree();
  EXPECT_EQ(sink.stand_trees(), 1u);
}

// The clock cadence is pinned by its effect: under an expired clock
// (max_seconds = 0) the stop arrives on exactly the flush that reads it.

TEST(LocalCounters, EveryBatchFlushReadsTheClock) {
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
    CounterSink sink(rules, /*workers=*/2);
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

// A worker alone on its sink knows the exact totals, so it flushes at the
// unit that reaches a tree or state limit, and the limit stops the run
// there; beside another worker it flushes at its batches only.
TEST(LocalCounters, LoneWorkerFlushesAtTheUnitThatReachesALimit) {
  using Count = void (LocalCounters::*)();
  using Total = std::uint64_t (CounterSink::*)() const;
  StoppingRules trees;
  trees.max_stand_trees = 5;
  StoppingRules states;
  states.max_states = 5;
  const struct {
    StoppingRules rules;
    Count count;
    Total total;
    StopReason reason;
  } kinds[] = {
      {trees, &LocalCounters::count_stand_tree, &CounterSink::stand_trees,
       StopReason::kTreeLimit},
      {states, &LocalCounters::count_state, &CounterSink::states,
       StopReason::kStateLimit}};
  for (const auto& kind : kinds) {
    CounterSink lone(kind.rules, /*workers=*/1);
    CounterSink shared(kind.rules, /*workers=*/2);
    LocalCounters alone(lone, 1024, 8192, 1024);
    LocalCounters beside(shared, 1024, 8192, 1024);
    for (int i = 0; i < 4; ++i) {
      (alone.*kind.count)();
      (beside.*kind.count)();
    }
    EXPECT_EQ((lone.*kind.total)(), 0u);
    EXPECT_FALSE(lone.stop_requested());
    (alone.*kind.count)();
    (beside.*kind.count)();
    EXPECT_EQ((lone.*kind.total)(), 5u);
    EXPECT_EQ(lone.reason(), kind.reason);
    EXPECT_EQ(alone.flush_count(), 1u);
    EXPECT_EQ((shared.*kind.total)(), 0u);
    EXPECT_FALSE(shared.stop_requested());
    EXPECT_EQ(beside.flush_count(), 0u);
  }
}

TEST(LocalCounters, LoneWorkerKeepsItsBatchesFarFromALimit) {
  // 2,500 trees under a limit of 3,000: flushes at 1,024 and 2,048, then
  // the limit is 952 trees away, nearer than the next batch.
  StoppingRules rules;
  rules.max_stand_trees = 3000;
  CounterSink sink(rules, /*workers=*/1);
  LocalCounters local(sink, 1024, 8192, 1024);
  for (int i = 0; i < 2500; ++i) local.count_stand_tree();
  EXPECT_EQ(sink.stand_trees(), 2048u);
  EXPECT_EQ(local.flush_count(), 2u);
  for (int i = 0; i < 499; ++i) local.count_stand_tree();
  EXPECT_EQ(sink.stand_trees(), 2048u);
  EXPECT_FALSE(sink.stop_requested());
  local.count_stand_tree();
  EXPECT_EQ(sink.stand_trees(), 3000u);
  EXPECT_EQ(sink.reason(), StopReason::kTreeLimit);
}

TEST(CounterSink, MoreWorkersThanToldFailADebugCheck) {
  if (!GENTRIUS_ENABLE_INVARIANTS)
    GTEST_SKIP() << "debug checks are compiled out";
  CounterSink sink({}, /*workers=*/1);
  LocalCounters first(sink, 1, 1, 1);
  EXPECT_THROW(LocalCounters second(sink, 1, 1, 1), support::InternalError);
}

// LocalCounters::count_run against its definition: the per-unit calls, with
// a stop check before every unit but the first. Both sides start from the
// same prior counts (which set the flush phase and the distance to a limit)
// and must agree on the stop, the sink totals, flush_count() and counted();
// then both keep counting states one by one, which shows that their pending
// counts also ended equal.

struct RunShape {
  std::uint32_t lead;
  std::vector<std::uint32_t> segments;
};

std::vector<RunShape> run_shapes() {
  return {{0, {1}},
          {0, {5}},
          {0, {0}},
          {0, {300}},  // longer than the small batches
          {1, {3, 0, 5, 1, 2, 0, 7}},
          {1, {0, 0, 0}},
          {1, std::vector<std::uint32_t>(40, 4)},  // 360 units
          {1, {120, 140, 0, 9}}};
}

struct Totals {
  std::uint64_t states = 0, trees = 0, dead_ends = 0;
};

Totals run_totals(const RunShape& shape) {
  Totals t;
  for (const std::uint32_t m : shape.segments) {
    t.states += shape.lead + m;
    t.trees += m;
    t.dead_ends += m == 0 ? 1 : 0;
  }
  return t;
}

bool count_per_unit(LocalCounters& local, const CounterSink& sink,
                    const RunShape& shape) {
  bool first = true;
  const auto unit = [&](void (LocalCounters::*count)()) {
    if (!first && sink.stop_requested()) return false;
    first = false;
    (local.*count)();
    return true;
  };
  for (const std::uint32_t m : shape.segments) {
    for (std::uint32_t l = 0; l < shape.lead; ++l)
      if (!unit(&LocalCounters::count_state)) return false;
    if (m == 0 && !unit(&LocalCounters::count_dead_end)) return false;
    for (std::uint32_t j = 0; j < m; ++j)
      if (!unit(&LocalCounters::count_state) ||
          !unit(&LocalCounters::count_stand_tree))
        return false;
  }
  return true;
}

struct Batches {
  std::uint32_t tree, state, dead_end;
};

struct Side {
  CounterSink sink;
  LocalCounters local;
  Side(const StoppingRules& rules, std::size_t workers, const Batches& b)
      : sink(rules, workers), local(sink, b.tree, b.state, b.dead_end) {}
};

/// Prior counts: `states` states, then `trees` (state, tree) pairs and one
/// dead end, unit by unit, stopping early when a limit fires.
void prior_counts(Side& side, std::uint64_t states, std::uint64_t pairs) {
  for (std::uint64_t k = 0; k < states && !side.sink.stop_requested(); ++k)
    side.local.count_state();
  for (std::uint64_t k = 0; k < pairs && !side.sink.stop_requested(); ++k) {
    side.local.count_state();
    side.local.count_stand_tree();
  }
  if (!side.sink.stop_requested()) side.local.count_dead_end();
}

void expect_same_as_per_unit(const StoppingRules& rules, std::size_t workers,
                             const Batches& b, std::uint64_t prior_states,
                             std::uint64_t prior_pairs, const RunShape& shape,
                             std::uint64_t* bulk_stops) {
  Side unit(rules, workers, b);
  Side bulk(rules, workers, b);
  prior_counts(unit, prior_states, prior_pairs);
  prior_counts(bulk, prior_states, prior_pairs);
  if (unit.sink.stop_requested()) return;  // the run would never start
  const bool unit_done = count_per_unit(unit.local, unit.sink, shape);
  const bool bulk_done = bulk.local.count_run(shape.lead, shape.segments);
  EXPECT_EQ(bulk_done, unit_done);
  if (!bulk_done) ++*bulk_stops;
  const auto same = [&](const char* when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(bulk.sink.states(), unit.sink.states());
    EXPECT_EQ(bulk.sink.stand_trees(), unit.sink.stand_trees());
    EXPECT_EQ(bulk.sink.dead_ends(), unit.sink.dead_ends());
    EXPECT_EQ(bulk.sink.stop_requested(), unit.sink.stop_requested());
    EXPECT_EQ(bulk.sink.reason(), unit.sink.reason());
    EXPECT_EQ(bulk.local.flush_count(), unit.local.flush_count());
    EXPECT_EQ(bulk.local.counted(), unit.local.counted());
  };
  same("after the run");
  for (int k = 0; k < 600 && !unit.sink.stop_requested(); ++k) {
    unit.local.count_state();
    bulk.local.count_state();
  }
  unit.local.flush_all();
  bulk.local.flush_all();
  same("after counting on and flushing");
}

// Every batch set runs on a lone sink, where a worker also flushes at the
// unit that reaches a limit, and on a shared one.
TEST(LocalCounters, CountRunMatchesPerUnitCounts) {
  const Batches batch_sets[] = {
      {1, 1, 1},           // unbatched
      {1024, 8192, 1024},  // the paper's batches
      {3, 7, 2},           // small batches
      {1, 8, 1},           // batch 1 beside a larger batch
  };
  std::uint64_t bulk_stops = 0;
  for (const Batches& b : batch_sets) {
    for (const std::size_t workers : {1, 2}) {
      for (const RunShape& shape : run_shapes()) {
        const Totals run = run_totals(shape);
        for (const std::uint64_t prior : {0, 1, 2, 117, 255, 256, 300}) {
          SCOPED_TRACE("batches " + std::to_string(b.tree) + "/" +
                       std::to_string(b.state) + "/" +
                       std::to_string(b.dead_end) + " workers " +
                       std::to_string(workers) + " lead " +
                       std::to_string(shape.lead) + " segments " +
                       std::to_string(shape.segments.size()) + " prior " +
                       std::to_string(prior));
          // Prior counts: `prior` states and prior / 2 pairs plus a dead
          // end; the run's end then sits at these totals.
          const std::uint64_t states0 = prior + prior / 2;
          const std::uint64_t trees0 = prior / 2;
          const std::uint64_t end_states = states0 + run.states;
          const std::uint64_t end_trees = trees0 + run.trees;
          // No limit in reach, an expired clock, and limits just below the
          // run's end, at it, just above it and inside the run.
          std::vector<StoppingRules> rule_sets(2);
          rule_sets[1].max_seconds = 0.0;
          for (const std::uint64_t d : {0, 1, 2}) {
            StoppingRules s;
            s.max_states = end_states + d - 1;
            rule_sets.push_back(s);
            StoppingRules t;
            t.max_stand_trees = end_trees + d - 1;
            rule_sets.push_back(t);
          }
          StoppingRules inside;
          inside.max_states = states0 + run.states / 2 + 1;
          inside.max_stand_trees = trees0 + run.trees / 3 + 1;
          rule_sets.push_back(inside);
          for (const StoppingRules& rules : rule_sets)
            expect_same_as_per_unit(rules, workers, b, prior, prior / 2,
                                    shape, &bulk_stops);
        }
      }
    }
  }
  EXPECT_GT(bulk_stops, 100u);  // the stops inside runs were exercised
}

TEST(LocalCounters, CountRunAtBatchOnePublishesEveryUnit) {
  // At batch 1 with nothing in reach every unit is published when the run
  // returns, and the flush count is the per-unit one.
  CounterSink sink({}, /*workers=*/2);
  LocalCounters local(sink, 1, 1, 1);
  const std::vector<std::uint32_t> segments{3, 0, 4};
  EXPECT_TRUE(local.count_run(1, segments));
  EXPECT_EQ(sink.states(), 10u);
  EXPECT_EQ(sink.stand_trees(), 7u);
  EXPECT_EQ(sink.dead_ends(), 1u);
  EXPECT_EQ(local.flush_count(), 18u);
  EXPECT_EQ(local.counted(), 18u);
}

TEST(LocalCounters, CountRunKeepsPoolBatchesLocal) {
  // Below the batches nothing is published, as with per-unit counts.
  CounterSink sink({}, /*workers=*/2);
  LocalCounters local(sink, 1024, 8192, 1024);
  const std::vector<std::uint32_t> segments{3, 0, 4};
  EXPECT_TRUE(local.count_run(1, segments));
  EXPECT_EQ(sink.states(), 0u);
  EXPECT_EQ(local.flush_count(), 0u);
  EXPECT_EQ(local.counted(), 18u);
  local.flush_all();
  EXPECT_EQ(sink.states(), 10u);
  EXPECT_EQ(sink.stand_trees(), 7u);
  EXPECT_EQ(sink.dead_ends(), 1u);
}

namespace {
class CountingWaker final : public StopWaker {
 public:
  void wake_all() override { ++calls; }
  int calls = 0;
};
}  // namespace

TEST(CounterSink, RequestStopInvokesRegisteredWaker) {
  CounterSink sink({}, /*workers=*/1);
  CountingWaker waker;
  sink.set_stop_waker(&waker);
  sink.request_stop(StopReason::kTreeLimit);
  EXPECT_EQ(waker.calls, 1);
  sink.request_stop(StopReason::kStateLimit);  // repeated stops re-wake
  EXPECT_EQ(waker.calls, 2);
  EXPECT_EQ(sink.reason(), StopReason::kTreeLimit);  // first reason kept
}

TEST(CounterSink, ClearedWakerIsNotInvoked) {
  CounterSink sink({}, /*workers=*/1);
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
  CounterSink sink(rules, /*workers=*/1);
  CountingWaker waker;
  sink.set_stop_waker(&waker);
  sink.add_states(10);
  EXPECT_TRUE(sink.stop_requested());
  EXPECT_EQ(waker.calls, 1);
}

}  // namespace
}  // namespace gentrius::core
