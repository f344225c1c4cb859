// Direct tests of the Enumerator state machine: prefix semantics, the
// task-offer rules, adopt/rewind round trips, and counting discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "datagen/dataset.hpp"
#include "gentrius/enumerator.hpp"
#include "gentrius/serial.hpp"
#include "phylo/newick.hpp"
#include "phylo/topology.hpp"

namespace gentrius::core {
namespace {

/// Test sink that records every offered task and accepts the first `cap`.
class RecordingSink final : public TaskSink {
 public:
  explicit RecordingSink(std::size_t cap) : cap_(cap) {}
  bool try_push(Task& task) override {
    offers.push_back(task);  // copy: the recording must outlive the pool
    if (tasks.size() >= cap_) return false;
    tasks.push_back(task);
    return true;
  }
  std::vector<Task> offers;  // every try_push, accepted or rejected
  std::vector<Task> tasks;   // the accepted ones

 private:
  std::size_t cap_;
};

datagen::Dataset hard_dataset(std::uint64_t seed = 2023) {
  datagen::SimulatedParams sp;
  sp.n_taxa = 28;
  sp.n_loci = 5;
  sp.missing_fraction = 0.5;
  sp.seed = seed;
  return datagen::make_simulated(sp);
}

/// The hand-off flood instance's forced start tree and insertion order:
/// every state with >= 3 remaining taxa holds an offer-eligible frame.
Options flood_options(const datagen::Dataset& ds) {
  Options opts;
  opts.select_initial_tree = false;
  opts.initial_constraint = ds.forced_initial_constraint;
  opts.dynamic_taxon_order = false;
  opts.insertion_order = ds.forced_insertion_order;
  return opts;
}

/// Runs `e` over the whole instance from I0, offering into `tasks`.
const Enumerator::Prefix& explore_all(Enumerator& e, TaskSink& tasks) {
  e.set_task_sink(&tasks);
  const auto& prefix = e.run_prefix(true);
  if (prefix.outcome != Enumerator::Prefix::Outcome::kSplit) return prefix;
  e.begin_branches(prefix.split_taxon, prefix.branches);
  while (e.step() == Enumerator::Step::kWorked) {}
  return prefix;
}

TEST(Enumerator, PrefixIsDeterministicAcrossInstances) {
  const auto ds = hard_dataset();
  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  CounterSink sink(opts.stop, /*workers=*/2);
  Enumerator a(problem, opts, sink), b(problem, opts, sink);
  const auto& pa = a.run_prefix(true);
  const auto& pb = b.run_prefix(false);
  EXPECT_EQ(pa.outcome, pb.outcome);
  EXPECT_EQ(pa.split_taxon, pb.split_taxon);
  EXPECT_EQ(pa.branches, pb.branches);
  EXPECT_EQ(pa.length, pb.length);
  // Only the counting enumerator advanced the shared states counter.
  a.counters().flush_all();
  b.counters().flush_all();
  EXPECT_EQ(sink.states(), pa.length);
}

TEST(Enumerator, UncountedPrefixKeepsTotalsSerial) {
  const auto ds = hard_dataset();
  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  const auto serial = run_serial(problem, opts);

  // Simulate two "threads" sharing the initial branches; neither prefix is
  // double counted, replays are free: totals must equal the serial run.
  CounterSink sink(opts.stop, /*workers=*/2);
  Enumerator a(problem, opts, sink), b(problem, opts, sink);
  const auto& prefix = a.run_prefix(true);
  b.run_prefix(false);
  ASSERT_EQ(prefix.outcome, Enumerator::Prefix::Outcome::kSplit);
  const std::size_t half = prefix.branches.size() / 2;
  std::vector<EdgeId> first(prefix.branches.begin(),
                            prefix.branches.begin() + half);
  std::vector<EdgeId> second(prefix.branches.begin() + half,
                             prefix.branches.end());
  a.begin_branches(prefix.split_taxon, first);
  b.begin_branches(prefix.split_taxon, second);
  while (a.step() == Enumerator::Step::kWorked) {}
  while (b.step() == Enumerator::Step::kWorked) {}
  a.counters().flush_all();
  b.counters().flush_all();
  EXPECT_EQ(sink.stand_trees(), serial.stand_trees);
  EXPECT_EQ(sink.states(), serial.intermediate_states);
  EXPECT_EQ(sink.dead_ends(), serial.dead_ends);
}

TEST(Enumerator, AdoptRewindRoundTripsExactly) {
  const auto ds = hard_dataset(77);
  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  CounterSink sink(opts.stop, /*workers=*/2);

  // A producer generates tasks; a thief replays one and hands its agile
  // tree back to I0 unchanged.
  Enumerator producer(problem, opts, sink);
  RecordingSink tasks(4);
  producer.set_task_sink(&tasks);
  const auto& prefix = producer.run_prefix(true);
  ASSERT_EQ(prefix.outcome, Enumerator::Prefix::Outcome::kSplit);
  producer.begin_branches(prefix.split_taxon, prefix.branches);
  while (tasks.tasks.empty() &&
         producer.step() == Enumerator::Step::kWorked) {}
  ASSERT_FALSE(tasks.tasks.empty()) << "instance never offered a task";

  Enumerator thief(problem, opts, sink);
  thief.run_prefix(false);
  const std::string at_i0 = phylo::canonical_encoding(thief.terrace().agile());
  const auto& task = tasks.tasks.front();
  const std::size_t replayed = thief.adopt_task(task);
  EXPECT_EQ(replayed, task.path.size());
  EXPECT_NE(phylo::canonical_encoding(thief.terrace().agile()), at_i0);
  const std::size_t removed = thief.rewind_to_split();
  EXPECT_EQ(removed, task.path.size());
  EXPECT_EQ(phylo::canonical_encoding(thief.terrace().agile()), at_i0);

  // And the thief can actually *work* a task to completion.
  thief.adopt_task(task);
  while (thief.step() == Enumerator::Step::kWorked) {}
  thief.rewind_to_split();
  EXPECT_EQ(phylo::canonical_encoding(thief.terrace().agile()), at_i0);
}

TEST(Enumerator, NoTaskOfferedBelowThreeRemainingTaxa) {
  // An instance whose exploration runs with <= 2 remaining taxa after the
  // split: the enumerator must never offer tasks.
  phylo::TaxonSet taxa;
  std::vector<phylo::Tree> cs;
  cs.push_back(phylo::parse_newick("((a,b),c,(d,e));", taxa));
  cs.push_back(phylo::parse_newick("(w,a,b);", taxa));  // 1 free taxon
  Options opts;
  const auto problem = build_problem(cs, opts);
  CounterSink sink(opts.stop, /*workers=*/1);
  Enumerator e(problem, opts, sink);
  RecordingSink tasks(100);
  e.set_task_sink(&tasks);
  const auto& prefix = e.run_prefix(true);
  ASSERT_EQ(prefix.outcome, Enumerator::Prefix::Outcome::kSplit);
  e.begin_branches(prefix.split_taxon, prefix.branches);
  while (e.step() == Enumerator::Step::kWorked) {}
  EXPECT_TRUE(tasks.tasks.empty());
  e.counters().flush_all();
  EXPECT_EQ(sink.stand_trees(), 7u);
}

TEST(Enumerator, OfferedTaskHalvesTheBranchSet) {
  const auto ds = hard_dataset(11);
  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  CounterSink sink(opts.stop, /*workers=*/1);
  Enumerator e(problem, opts, sink);
  RecordingSink tasks(1);
  e.set_task_sink(&tasks);
  const auto& prefix = e.run_prefix(true);
  ASSERT_EQ(prefix.outcome, Enumerator::Prefix::Outcome::kSplit);
  e.begin_branches(prefix.split_taxon, prefix.branches);
  while (tasks.tasks.empty() && e.step() == Enumerator::Step::kWorked) {}
  ASSERT_EQ(tasks.tasks.size(), 1u);
  EXPECT_GE(tasks.tasks[0].branches.size(), 1u);
  EXPECT_EQ(e.tasks_offered(), 1u);
}

// With every offer rejected the producer explores each frame whole and in
// order, so a frame's branches reappear as the last path entries of the
// offers made one level below it. The offer must hold the first
// floor(n/2) of the frame's n branches: the paper's split.
TEST(Enumerator, OfferedTaskIsTheFirstHalfOfTheFrame) {
  const auto ds = datagen::make_flood_instance(/*depth=*/6, /*seed=*/3);
  const Options opts = flood_options(ds);
  const auto problem = build_problem(ds.constraints, opts);
  CounterSink sink(opts.stop, /*workers=*/1);
  Enumerator e(problem, opts, sink);
  RecordingSink log(0);
  explore_all(e, log);
  ASSERT_FALSE(log.offers.empty());

  std::size_t checked = 0;
  for (const Task& parent : log.offers) {
    std::vector<EdgeId> frame;  // the parent frame's branches, in order
    for (const Task& child : log.offers) {
      if (child.path.size() != parent.path.size() + 1 ||
          !std::equal(parent.path.begin(), parent.path.end(),
                      child.path.begin()))
        continue;
      ASSERT_EQ(child.path.back().first, parent.next_taxon);
      frame.push_back(child.path.back().second);
    }
    if (frame.empty()) continue;  // children fall below the offer floor
    ASSERT_GE(frame.size(), 2u);
    const auto half = static_cast<std::ptrdiff_t>(frame.size() / 2);
    const std::vector<EdgeId> first_half(frame.begin(), frame.begin() + half);
    EXPECT_EQ(parent.branches, first_half);
    ++checked;
  }
  EXPECT_GT(checked, 10u);
}

// The paper's offer floor counts the remaining taxa at the frame, its own
// taxon included: offers reach down to exactly 3 and never below it.
TEST(Enumerator, OffersReachDownToTheOfferFloor) {
  const auto ds = datagen::make_flood_instance(/*depth=*/6, /*seed=*/3);
  const Options opts = flood_options(ds);
  const auto problem = build_problem(ds.constraints, opts);
  CounterSink sink(opts.stop, /*workers=*/1);
  Enumerator e(problem, opts, sink);
  RecordingSink log(0);
  const std::size_t prefix = explore_all(e, log).length;
  ASSERT_FALSE(log.offers.empty());
  std::size_t lowest = problem.missing_count();
  for (const Task& offer : log.offers) {
    const std::size_t remaining =
        problem.missing_count() - prefix - offer.path.size();
    EXPECT_GE(remaining, 3u);
    lowest = std::min(lowest, remaining);
  }
  EXPECT_EQ(lowest, 3u);
}

// A rejected offer leaves the producer its whole frame: one enumerator
// alone still counts what the serial driver counts.
TEST(Enumerator, RejectedOffersLeaveTheFrameWhole) {
  const auto ds = hard_dataset(11);
  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  const auto serial = run_serial(problem, opts);
  CounterSink sink(opts.stop, /*workers=*/1);
  Enumerator e(problem, opts, sink);
  RecordingSink log(0);
  explore_all(e, log);
  e.counters().flush_all();
  EXPECT_FALSE(log.offers.empty());
  EXPECT_EQ(e.tasks_offered(), 0u);
  EXPECT_EQ(sink.stand_trees(), serial.stand_trees);
  EXPECT_EQ(sink.states(), serial.intermediate_states);
  EXPECT_EQ(sink.dead_ends(), serial.dead_ends);
}

// Accepting every offer splits every eligible frame in two. The producer
// keeps the second halves, one thief works every task (offering again as it
// goes), and together they count exactly what the serial driver counts.
TEST(Enumerator, AcceptingEveryOfferKeepsTotalsExact) {
  const auto flood = datagen::make_flood_instance(/*depth=*/6, /*seed=*/3);
  const auto sim = hard_dataset(77);
  for (const auto& [ds, opts] :
       {std::pair{flood, flood_options(flood)}, std::pair{sim, Options{}}}) {
    const auto problem = build_problem(ds.constraints, opts);
    const auto serial = run_serial(problem, opts);
    CounterSink sink(opts.stop, /*workers=*/2);
    Enumerator producer(problem, opts, sink);
    RecordingSink queue(SIZE_MAX);
    explore_all(producer, queue);
    ASSERT_FALSE(queue.tasks.empty());
    EXPECT_EQ(producer.tasks_offered(), queue.tasks.size());

    Enumerator thief(problem, opts, sink);
    thief.set_task_sink(&queue);
    thief.run_prefix(false);
    for (std::size_t i = 0; i < queue.tasks.size(); ++i) {
      const Task task = queue.tasks[i];  // copy: the thief appends offers
      thief.adopt_task(task);
      while (thief.step() == Enumerator::Step::kWorked) {}
      thief.rewind_to_split();
    }
    producer.counters().flush_all();
    thief.counters().flush_all();
    EXPECT_GT(queue.tasks.size(), producer.tasks_offered());
    EXPECT_EQ(sink.stand_trees(), serial.stand_trees);
    EXPECT_EQ(sink.states(), serial.intermediate_states);
    EXPECT_EQ(sink.dead_ends(), serial.dead_ends);
  }
}

TEST(Enumerator, StopFlagHaltsStepping) {
  const auto ds = hard_dataset(5);
  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  CounterSink sink(opts.stop, /*workers=*/1);
  Enumerator e(problem, opts, sink);
  const auto& prefix = e.run_prefix(true);
  ASSERT_EQ(prefix.outcome, Enumerator::Prefix::Outcome::kSplit);
  e.begin_branches(prefix.split_taxon, prefix.branches);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(e.step(), Enumerator::Step::kWorked);
  sink.request_stop(StopReason::kTreeLimit);
  EXPECT_EQ(e.step(), Enumerator::Step::kStopped);
}

}  // namespace
}  // namespace gentrius::core
