// TSan-focused stress tests for the steal/terminate/stop-rule edges of the
// work-stealing queue and the batched counter sink (paper §III-A/B).
//
// These tests are about *interleavings*, not outcomes: each scenario drives
// many threads through a narrow synchronization window (producers racing
// broadcast_stop, last-worker termination racing a late try_push, flush
// storms into one CounterSink) and asserts the linearizable invariants that
// must survive every schedule. One more checks that a copied Terrace shares
// no mutable state with its original. Run them under GENTRIUS_SAN=thread (the
// `tsan` preset) to turn any data race into a failure; they also pass — and
// check the same invariants — in plain builds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "datagen/dataset.hpp"
#include "gentrius/counters.hpp"
#include "gentrius/problem.hpp"
#include "gentrius/serial.hpp"
#include "gentrius/terrace.hpp"
#include "parallel/steal_deque.hpp"
#include "parallel/task_queue.hpp"

namespace gentrius::parallel {
namespace {

core::Task make_task(int tag) {
  core::Task t;
  t.next_taxon = static_cast<core::TaxonId>(tag);
  return t;
}

/// try_push takes a mutable Task (swap hand-off); stage the temporary.
bool push(TaskQueue& q, core::Task t) { return q.try_push(t); }

// --- producers hammering try_push while broadcast_stop fires ---------------
//
// The edge under test: a stopping rule fires while external producers are
// mid-push and consumers are blocked in pop(). Every schedule must (a) let
// all threads exit, (b) reject every push after done_ is set, and (c) hand
// each accepted task to at most one consumer.
TEST(RaceStress, PushStormVersusBroadcastStop) {
  constexpr int kRounds = 40;
  constexpr std::size_t kConsumers = 4;
  constexpr std::size_t kProducers = 4;

  for (int round = 0; round < kRounds; ++round) {
    core::CounterSink sink({}, /*workers=*/1);
    TaskQueue queue(/*capacity=*/4, /*workers=*/kConsumers);
    std::atomic<int> consumed{0};
    std::atomic<int> accepted{0};
    std::atomic<bool> producers_done{false};

    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&] {
        core::Task task;
        while (queue.pop(sink, task)) {
          consumed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::size_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        int tag = static_cast<int>(p) * 10000;
        while (!producers_done.load(std::memory_order_acquire)) {
          if (push(queue, make_task(tag++)))
            accepted.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
      });
    }

    // Let the storm develop, then fire the stopping rule mid-flight.
    for (int spin = 0; spin < 100 * (round % 7 + 1); ++spin)
      std::this_thread::yield();
    sink.request_stop(core::StopReason::kTreeLimit);
    queue.broadcast_stop();
    producers_done.store(true, std::memory_order_release);

    for (auto& t : threads) t.join();

    // Consumers never see more tasks than producers enqueued; tasks left in
    // the queue when the stop landed are the only permissible shortfall.
    EXPECT_LE(consumed.load(), accepted.load());
    EXPECT_FALSE(push(queue, make_task(-1)))
        << "queue must stay terminated after broadcast_stop";
  }
}

// --- last-worker termination racing a late try_push ------------------------
//
// The edge under test: both workers drain toward idle while a third thread
// pushes one final task. Linearizability of pop's termination check demands
// that a push accepted before done_ is always consumed (termination requires
// an empty queue), and a push after done_ is always rejected — a lost task
// here is exactly the silent race this suite exists to catch.
TEST(RaceStress, LastWorkerTerminationRacesLatePush) {
  constexpr int kRounds = 300;
  for (int round = 0; round < kRounds; ++round) {
    core::CounterSink sink({}, /*workers=*/1);
    TaskQueue queue(/*capacity=*/2, /*workers=*/2);
    std::atomic<int> consumed{0};
    std::atomic<int> accepted{0};

    std::thread pusher([&] {
      // Vary the push timing across rounds to sweep the race window.
      for (int spin = 0; spin < round % 50; ++spin) std::this_thread::yield();
      if (push(queue, make_task(round)))
        accepted.fetch_add(1, std::memory_order_relaxed);
    });
    std::thread worker_a([&] {
      core::Task task;
      while (queue.pop(sink, task))
        consumed.fetch_add(1, std::memory_order_relaxed);
    });
    std::thread worker_b([&] {
      core::Task task;
      while (queue.pop(sink, task))
        consumed.fetch_add(1, std::memory_order_relaxed);
    });

    pusher.join();
    worker_a.join();
    worker_b.join();

    EXPECT_EQ(consumed.load(), accepted.load())
        << "an accepted task was lost (or duplicated) in round " << round;
    EXPECT_FALSE(push(queue, make_task(-1)))
        << "try_push must reject after termination";
  }
}

// --- workers re-offering tasks while the pool drains -----------------------
//
// Production-shaped traffic: busy workers intermittently push subtasks while
// idle workers steal, with the queue repeatedly bouncing between full and
// empty until the pool terminates itself (no external stop). Checks the
// busy-count bookkeeping: exactly every accepted task is consumed.
TEST(RaceStress, SelfDrainingPoolWithReoffers) {
  constexpr int kRounds = 20;
  constexpr std::size_t kWorkers = 8;
  for (int round = 0; round < kRounds; ++round) {
    core::CounterSink sink({}, /*workers=*/1);
    TaskQueue queue(queue_capacity_for(kWorkers), kWorkers);
    std::atomic<int> consumed{0};
    std::atomic<int> accepted{0};

    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        // Seed the queue while "busy", then drain; every fifth consumed task
        // re-offers a child task that does not itself spawn more work.
        for (int i = 0; i < 40; ++i) {
          if (push(queue, make_task(static_cast<int>(w) * 1000 + i + 2)))
            accepted.fetch_add(1, std::memory_order_relaxed);
        }
        core::Task task;
        while (queue.pop(sink, task)) {
          consumed.fetch_add(1, std::memory_order_relaxed);
          if (task.next_taxon % 5 == 0 && push(queue, make_task(1)))
            accepted.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(consumed.load(), accepted.load());
    EXPECT_EQ(queue.size(), 0u) << "pool terminated with tasks still queued";
  }
}

// --- deque scheduler: owner pushes racing concurrent steals ----------------
//
// The distributed scheduler's narrow window: owners push/pop their own ring
// at the tail while thieves take from the head, with termination detected
// by the busy count. Every accepted task must be consumed exactly once and
// the pool must terminate itself with all deques empty, on every schedule.
TEST(RaceStress, DequeSelfDrainingPoolWithReoffers) {
  constexpr int kRounds = 20;
  constexpr std::size_t kWorkers = 8;
  for (int round = 0; round < kRounds; ++round) {
    core::CounterSink sink({}, /*workers=*/1);
    DequeScheduler sched(kWorkers, /*steal_seed=*/static_cast<std::uint64_t>(round));
    std::atomic<int> consumed{0};
    std::atomic<int> accepted{0};

    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        core::TaskSink* sink_w = sched.sink_for(w);
        // Seed the own deque while "busy" (more offers than its capacity,
        // so the rejection path is exercised too), then drain; every fifth
        // consumed task re-offers a child that spawns no more work.
        for (int i = 0; i < 40; ++i) {
          core::Task t = make_task(static_cast<int>(w) * 1000 + i + 2);
          if (sink_w->try_push(t))
            accepted.fetch_add(1, std::memory_order_relaxed);
        }
        core::Task task;
        while (sched.acquire(w, sink, task)) {
          consumed.fetch_add(1, std::memory_order_relaxed);
          core::Task child = make_task(1);
          if (task.next_taxon % 5 == 0 && sink_w->try_push(child))
            accepted.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(consumed.load(), accepted.load());
    EXPECT_EQ(sched.pending(), 0u) << "pool terminated with tasks queued";
    const auto stats = sched.stats();
    EXPECT_LE(stats.tasks_stolen, static_cast<std::uint64_t>(accepted.load()));
    EXPECT_LE(stats.tasks_stolen, stats.steal_attempts);
  }
}

// --- deque scheduler: steal storm racing broadcast_stop --------------------
//
// Mirrors PushStormVersusBroadcastStop on the distributed scheduler: the
// stop must release parked thieves, reject subsequent pushes, and never
// duplicate a hand-off.
TEST(RaceStress, DequeStealStormVersusBroadcastStop) {
  constexpr int kRounds = 40;
  constexpr std::size_t kWorkers = 4;

  for (int round = 0; round < kRounds; ++round) {
    core::CounterSink sink({}, /*workers=*/1);
    DequeScheduler sched(kWorkers, /*steal_seed=*/7);
    std::atomic<int> consumed{0};
    std::atomic<int> accepted{0};
    std::atomic<bool> quit{false};

    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        core::TaskSink* sink_w = sched.sink_for(w);
        int tag = static_cast<int>(w) * 10000;
        // Interleave pushing and acquiring until the stop lands.
        while (!quit.load(std::memory_order_acquire)) {
          core::Task t = make_task(tag++);
          if (sink_w->try_push(t))
            accepted.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
          if (sink.stop_requested()) break;
        }
        core::Task task;
        while (sched.acquire(w, sink, task))
          consumed.fetch_add(1, std::memory_order_relaxed);
      });
    }

    for (int spin = 0; spin < 100 * (round % 7 + 1); ++spin)
      std::this_thread::yield();
    sink.request_stop(core::StopReason::kTreeLimit);
    sched.broadcast_stop();
    quit.store(true, std::memory_order_release);

    for (auto& t : threads) t.join();

    EXPECT_LE(consumed.load(), accepted.load());
    core::Task late = make_task(-1);
    EXPECT_FALSE(sched.sink_for(0)->try_push(late))
        << "scheduler must stay terminated after broadcast_stop";
  }
}

// --- raw locked deque: owner loop versus a steal storm ---------------------
//
// Below the scheduler, the StealDeque itself: one owner pushes
// sequence-tagged tasks and pops interleaved while several thieves steal
// concurrently. Every pushed task must surface exactly once — at the owner
// or at exactly one thief — across every interleaving of the owner's
// locked pushes and pops with the thieves' try_lock steals. The
// per-sequence tally turns both a lost hand-off and a duplicated one into a
// failure; under GENTRIUS_SAN=thread any unsynchronized ring access is a
// race report.
TEST(RaceStress, LockedDequeExactlyOnceUnderStealStorm) {
  constexpr int kTasks = 20000;
  constexpr std::size_t kThieves = 3;

  std::atomic<std::size_t> pending{0};
  StealDeque deque(/*capacity=*/8, pending);
  std::vector<std::atomic<int>> seen(kTasks);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);
  std::atomic<bool> owner_done{false};

  const auto record = [&](const core::Task& t) {
    seen[static_cast<int>(t.next_taxon)].fetch_add(1,
                                                   std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  for (std::size_t i = 0; i < kThieves; ++i) {
    thieves.emplace_back([&] {
      core::Task out;
      // Keep probing until the owner is done AND the deque reads empty;
      // a failed steal during the storm is just a lost race.
      for (;;) {
        if (deque.steal(out)) {
          record(out);
        } else if (owner_done.load(std::memory_order_acquire) &&
                   deque.size() == 0) {
          return;
        } else {
          std::this_thread::yield();  // single-core hosts: let the owner run
        }
      }
    });
  }

  core::Task out;
  for (int seq = 0; seq < kTasks; ++seq) {
    core::Task t = make_task(seq);
    while (!deque.owner_push(t)) {
      // Ring full: drain one (this also exercises pop racing the thieves).
      if (deque.owner_pop(out)) record(out);
    }
    // Interleave owner pops so the last-element race is hit often.
    if (seq % 3 == 0 && deque.owner_pop(out)) record(out);
  }
  while (deque.owner_pop(out)) record(out);
  owner_done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  for (int seq = 0; seq < kTasks; ++seq) {
    ASSERT_EQ(seen[seq].load(), 1)
        << "task " << seq << " was lost or duplicated";
  }
}

// --- raw locked deque: the one-element owner/thief race --------------------
//
// Capacity 1 pins every round on the narrowest window: the owner's pop
// racing the thief's steal for the same final element. Exactly one side may
// win each round; the loser must observe an empty deque (or, for the thief,
// a held lock), never a duplicate or a stale task.
TEST(RaceStress, LockedDequeLastElementRaceHandsOffExactlyOnce) {
  constexpr int kRounds = 4000;
  std::atomic<std::size_t> pending{0};
  StealDeque deque(/*capacity=*/1, pending);
  std::vector<std::atomic<int>> seen(kRounds);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);
  std::atomic<int> round_ready{-1};
  std::atomic<int> round_done{-1};

  std::thread thief([&] {
    core::Task out;
    for (int r = 0; r < kRounds; ++r) {
      while (round_ready.load(std::memory_order_acquire) < r)
        std::this_thread::yield();
      if (deque.steal(out))
        seen[static_cast<int>(out.next_taxon)].fetch_add(
            1, std::memory_order_relaxed);
      round_done.store(r, std::memory_order_release);
    }
  });

  core::Task out;
  for (int r = 0; r < kRounds; ++r) {
    core::Task t = make_task(r);
    ASSERT_TRUE(deque.owner_push(t));
    round_ready.store(r, std::memory_order_release);
    if (deque.owner_pop(out))
      seen[static_cast<int>(out.next_taxon)].fetch_add(
          1, std::memory_order_relaxed);
    while (round_done.load(std::memory_order_acquire) < r)
      std::this_thread::yield();
    ASSERT_EQ(seen[r].load(), 1)
        << "round " << r << ": the final element must go to exactly one side";
    ASSERT_EQ(deque.size(), 0u);
  }
  thief.join();
}

// --- counter-flush storms across >= 8 threads ------------------------------
//
// Every thread owns a LocalCounters with tiny batch sizes and publishes into
// one CounterSink as fast as it can. The totals are exact sums regardless of
// interleaving; under TSan this also proves the relaxed-atomic publication
// protocol is race-free.
TEST(RaceStress, CounterFlushStorm) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kTreesPer = 2000;
  constexpr std::uint64_t kStatesPer = 5000;
  constexpr std::uint64_t kDeadEndsPer = 3000;

  core::CounterSink sink({}, kThreads);  // default limits: far out of reach
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      core::LocalCounters local(sink, /*tree_batch=*/3, /*state_batch=*/7,
                                /*dead_end_batch=*/2);
      for (std::uint64_t n = 0; n < kStatesPer; ++n) local.count_state();
      for (std::uint64_t n = 0; n < kTreesPer; ++n) local.count_stand_tree();
      for (std::uint64_t n = 0; n < kDeadEndsPer; ++n) local.count_dead_end();
      local.flush_all();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(sink.stand_trees(), kThreads * kTreesPer);
  EXPECT_EQ(sink.states(), kThreads * kStatesPer);
  EXPECT_EQ(sink.dead_ends(), kThreads * kDeadEndsPer);
  EXPECT_EQ(sink.reason(), core::StopReason::kCompleted);
}

// --- stopping-rule storm: many threads trip the limit at once --------------
//
// All threads race to cross max_states simultaneously; the reason CAS must
// record exactly one rule and the published total must be at least the
// limit (overshoot bounded by threads * batch, as the paper documents).
TEST(RaceStress, StopRuleFiresOnceUnderFlushStorm) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kLimit = 10000;
  core::StoppingRules rules;
  rules.max_states = kLimit;

  core::CounterSink sink(rules, kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      core::LocalCounters local(sink, 8, 8, 8);
      while (!sink.stop_requested()) local.count_state();
      local.flush_all();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(sink.reason(), core::StopReason::kStateLimit);
  EXPECT_TRUE(sink.stop_requested());
  EXPECT_GE(sink.states(), kLimit);
  // Overshoot is bounded by in-flight batches (threads * batch) plus the
  // propagation window of the stop flag; 2x the limit is far beyond both.
  EXPECT_LE(sink.states(), 2 * kLimit);
}

// --- a copied Terrace is an independent value -------------------------------
//
// A Terrace copied before its first mapping build, or mid-search with its
// mappings built, some splits applied and others pending, must share no
// mutable state with the original. The original and the copy each run the
// same choose/insert/remove DFS on their own thread: first the subtree
// below a state down the search, then, after undoing the inserts that led
// there, the whole stand. Under TSan a shared buffer is a reported race; in
// every build each side must count exactly what one thread counts on a
// fresh Terrace, and the whole stand is run_serial's.

struct DfsCounts {
  std::uint64_t trees = 0, states = 0, dead_ends = 0;
  bool operator==(const DfsCounts&) const = default;
};

void dfs(core::Terrace& t, DfsCounts& counts) {
  std::vector<core::EdgeId> branches;
  const auto choice = t.choose_dynamic(branches);
  if (choice.complete) {
    ++counts.trees;
    return;
  }
  if (choice.dead_end) {
    ++counts.dead_ends;
    return;
  }
  for (const core::EdgeId e : branches) {
    const auto rec = t.insert(choice.taxon, e);
    ++counts.states;
    dfs(t, counts);
    t.remove(rec);
  }
}

/// 5,589 stand trees, 11,927 states.
core::Problem copy_test_problem() {
  datagen::SimulatedParams sp;
  sp.n_taxa = 32;
  sp.n_loci = 6;
  sp.missing_fraction = 0.5;
  sp.seed = 80;
  return core::build_problem(datagen::make_simulated(sp).constraints,
                             core::Options{});
}

/// The root check (the first mapping build), then down the last branch of
/// each choice until three choices had more than one branch: the splits of
/// all inserts but the last are applied, and the last insert's pending.
std::vector<core::InsertRecord> build_and_descend(core::Terrace& t) {
  EXPECT_TRUE(t.initial_state_consistent());
  std::vector<core::InsertRecord> path;
  std::vector<core::EdgeId> branches;
  for (int real_choices = 0; real_choices < 3;) {
    const auto choice = t.choose_dynamic(branches);
    if (choice.complete || choice.dead_end) break;
    if (branches.size() > 1) ++real_choices;
    path.push_back(t.insert(choice.taxon, branches.back()));
  }
  return path;
}

struct CopyRun {
  DfsCounts below, whole;
  bool operator==(const CopyRun&) const = default;
};

/// The DFS below t's state, then the inserts of `path` undone (newest
/// first) and the DFS of the whole stand.
CopyRun run_from(core::Terrace& t,
                 const std::vector<core::InsertRecord>& path) {
  CopyRun r;
  dfs(t, r.below);
  for (auto it = path.rbegin(); it != path.rend(); ++it) t.remove(*it);
  dfs(t, r.whole);
  return r;
}

/// One thread on a fresh Terrace.
CopyRun single_thread_run(const core::Problem& problem) {
  core::Terrace fresh(problem);
  const auto path = build_and_descend(fresh);
  return run_from(fresh, path);
}

TEST(RaceStress, CopiedTerraceIsIndependentOfItsOriginal) {
  const auto problem = copy_test_problem();
  const CopyRun want = single_thread_run(problem);
  ASSERT_GT(want.below.trees, 0u);
  ASSERT_GT(want.whole.trees, want.below.trees);
  const core::Result serial = core::run_serial(problem, core::Options{});
  EXPECT_EQ(want.whole.trees, serial.stand_trees);
  EXPECT_EQ(want.whole.states, serial.intermediate_states);
  EXPECT_EQ(want.whole.dead_ends, serial.dead_ends);

  core::Terrace original(problem);
  const auto path = build_and_descend(original);
  core::Terrace copy = original;
  CopyRun got_original, got_copy;
  std::thread a([&] { got_original = run_from(original, path); });
  std::thread b([&] { got_copy = run_from(copy, path); });
  a.join();
  b.join();
  EXPECT_EQ(got_original, want);
  EXPECT_EQ(got_copy, want);
}

TEST(RaceStress, TerraceCopiedBeforeItsFirstBuildIsIndependent) {
  const auto problem = copy_test_problem();
  const CopyRun want = single_thread_run(problem);
  core::Terrace original(problem);
  core::Terrace copy = original;
  auto run = [](core::Terrace& t) { return run_from(t, build_and_descend(t)); };
  CopyRun got_original, got_copy;
  std::thread a([&] { got_original = run(original); });
  std::thread b([&] { got_copy = run(copy); });
  a.join();
  b.join();
  EXPECT_EQ(got_original, want);
  EXPECT_EQ(got_copy, want);
}

}  // namespace
}  // namespace gentrius::parallel
