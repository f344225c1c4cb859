// Unit tests for the distributed scheduler's building blocks: StealDeque
// ring semantics (owner LIFO / thief FIFO, capacity rejection, stats, the
// shared pending count), DequeScheduler termination, stop handling and
// locked-victim probes, and the stop-wake regression — a consumer parked
// inside either scheduler must unblock promptly when
// CounterSink::request_stop fires from another thread, without anyone
// calling broadcast_stop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

#include "parallel/steal_deque.hpp"
#include "parallel/task_queue.hpp"
#include "support/sync.hpp"

namespace gentrius::parallel {
namespace {

core::Task make_task(int tag) {
  core::Task t;
  t.next_taxon = static_cast<core::TaxonId>(tag);
  return t;
}

bool push(StealDeque& d, core::Task t) { return d.owner_push(t); }

int tag_of(const core::Task& t) { return static_cast<int>(t.next_taxon); }

// The zero-worker VictimSelector state is unrepresentable by construction:
// no default constructor, and n_workers >= 1 is checked. The static_assert
// makes the "no default constructor" half a compile-time contract.
static_assert(!std::is_default_constructible_v<VictimSelector>,
              "a VictimSelector without a worker count must not compile");

TEST(VictimSelector, SingleWorkerAlwaysSweepsFromZero) {
  VictimSelector sel(/*seed=*/123, /*tid=*/0, /*n_workers=*/1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sel.begin_sweep(), 0u);
}

TEST(VictimSelector, SweepStartsStayInRangeAndCoverAllWorkers) {
  constexpr std::size_t kWorkers = 5;
  VictimSelector sel(/*seed=*/99, /*tid=*/2, kWorkers);
  std::vector<bool> hit(kWorkers, false);
  for (int i = 0; i < 500; ++i) {
    const std::size_t v = sel.begin_sweep();
    ASSERT_LT(v, kWorkers);
    hit[v] = true;
  }
  for (std::size_t w = 0; w < kWorkers; ++w)
    EXPECT_TRUE(hit[w]) << "worker " << w << " never chosen as sweep start";
}

TEST(VictimSelector, SeededSelectionIsDeterministicPerThread) {
  VictimSelector a(/*seed=*/7, /*tid=*/3, /*n_workers=*/8);
  VictimSelector b(/*seed=*/7, /*tid=*/3, /*n_workers=*/8);
  VictimSelector c(/*seed=*/7, /*tid=*/4, /*n_workers=*/8);
  bool differs = false;
  for (int i = 0; i < 64; ++i) {
    const std::size_t va = a.begin_sweep();
    EXPECT_EQ(va, b.begin_sweep());
    differs |= (va != c.begin_sweep());
  }
  EXPECT_TRUE(differs) << "different tids must not share a victim sequence";
}

TEST(StealDeque, OwnerPopsLifoThievesStealFifo) {
  std::atomic<std::size_t> pending{0};
  StealDeque d(4, pending);
  ASSERT_TRUE(push(d, make_task(1)));
  ASSERT_TRUE(push(d, make_task(2)));
  ASSERT_TRUE(push(d, make_task(3)));
  core::Task out;
  ASSERT_TRUE(d.owner_pop(out));
  EXPECT_EQ(tag_of(out), 3);  // newest first for the owner
  ASSERT_TRUE(d.steal(out));
  EXPECT_EQ(tag_of(out), 1);  // oldest first for a thief
  ASSERT_TRUE(d.owner_pop(out));
  EXPECT_EQ(tag_of(out), 2);
  EXPECT_FALSE(d.owner_pop(out));
  EXPECT_FALSE(d.steal(out));
}

TEST(StealDeque, RejectsWhenFullAndCountsRejections) {
  std::atomic<std::size_t> pending{0};
  StealDeque d(2, pending);
  EXPECT_TRUE(push(d, make_task(1)));
  EXPECT_TRUE(push(d, make_task(2)));
  EXPECT_FALSE(push(d, make_task(3)));
  EXPECT_FALSE(push(d, make_task(4)));
  EXPECT_EQ(d.rejections(), 2u);
  EXPECT_EQ(d.max_depth(), 2u);
  core::Task out;
  ASSERT_TRUE(d.steal(out));
  EXPECT_TRUE(push(d, make_task(5)));  // capacity freed by the steal
  EXPECT_EQ(d.rejections(), 2u);
}

TEST(StealDeque, RingWrapsAcrossManyHandoffs) {
  std::atomic<std::size_t> pending{0};
  StealDeque d(3, pending);
  core::Task out;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(push(d, make_task(2 * i)));
    ASSERT_TRUE(push(d, make_task(2 * i + 1)));
    ASSERT_TRUE(d.steal(out));
    EXPECT_EQ(tag_of(out), 2 * i);
    ASSERT_TRUE(d.owner_pop(out));
    EXPECT_EQ(tag_of(out), 2 * i + 1);
  }
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.max_depth(), 2u);
}

// The scheduler-wide pending count that rings share: it rises with every
// accepted push, not with a rejected one, and falls with every pop or
// steal, whichever ring the task leaves.
TEST(StealDeque, PendingCountsQueuedTasksAcrossRings) {
  std::atomic<std::size_t> pending{0};
  StealDeque a(1, pending);
  StealDeque b(2, pending);
  ASSERT_TRUE(push(a, make_task(1)));
  EXPECT_FALSE(push(a, make_task(2)));
  ASSERT_TRUE(push(b, make_task(3)));
  ASSERT_TRUE(push(b, make_task(4)));
  EXPECT_EQ(pending.load(), 3u);
  core::Task out;
  ASSERT_TRUE(a.steal(out));
  ASSERT_TRUE(b.owner_pop(out));
  EXPECT_EQ(pending.load(), 1u);
  EXPECT_FALSE(a.owner_pop(out));
  EXPECT_EQ(pending.load(), 1u);
  ASSERT_TRUE(b.steal(out));
  EXPECT_EQ(pending.load(), 0u);
}

TEST(DequeScheduler, PerWorkerCapacityBeatsTheCentralRuleAtScale) {
  // The structural headroom argument for the scheduler: at 48 threads the
  // central queue holds 24 tasks in total, the deques 8 per worker.
  EXPECT_EQ(queue_capacity_for(48), 24u);
  EXPECT_EQ(steal_deque_capacity_for(48) * 48, 384u);
}

TEST(DequeScheduler, SingleWorkerTerminatesImmediately) {
  core::CounterSink sink({}, /*workers=*/1);
  DequeScheduler sched(1, /*steal_seed=*/1);
  core::Task out;
  EXPECT_FALSE(sched.acquire(0, sink, out));
}

TEST(DequeScheduler, OwnerDrainsOwnDequeBeforeTermination) {
  core::CounterSink sink({}, /*workers=*/1);
  DequeScheduler sched(1, 1);
  core::Task t = make_task(7);
  ASSERT_TRUE(sched.sink_for(0)->try_push(t));
  core::Task out;
  ASSERT_TRUE(sched.acquire(0, sink, out));
  EXPECT_EQ(tag_of(out), 7);
  EXPECT_FALSE(sched.acquire(0, sink, out));  // drained: terminates
  const auto s = sched.stats();
  EXPECT_EQ(s.tasks_stolen, 0u);  // an own-pop is not a steal
  EXPECT_EQ(s.max_queue_depth, 1u);
}

TEST(DequeScheduler, ThiefStealsAcrossWorkersAndPoolTerminates) {
  core::CounterSink sink({}, /*workers=*/1);
  DequeScheduler sched(2, 1);
  // Worker 0 offers two tasks, then both workers drain to termination.
  for (int i = 0; i < 2; ++i) {
    core::Task t = make_task(i);
    ASSERT_TRUE(sched.sink_for(0)->try_push(t));
  }
  std::atomic<int> taken{0};
  std::vector<std::thread> threads;
  for (std::size_t tid = 0; tid < 2; ++tid) {
    threads.emplace_back([&, tid] {
      core::Task out;
      while (sched.acquire(tid, sink, out)) ++taken;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(taken.load(), 2);
  EXPECT_EQ(sched.pending(), 0u);
}

// The TaskSink contract through a worker's handle: an accepted task reaches
// the thief whole, and a push into a full own deque is rejected, counted,
// and leaves the task untouched.
TEST(DequeScheduler, HandleKeepsTheTaskSinkContract) {
  core::CounterSink sink({}, /*workers=*/1);
  DequeScheduler sched(2, 1);
  core::TaskSink* own = sched.sink_for(0);
  core::Task first = make_task(1);
  first.path = {{2, 3}};
  first.branches = {4, 5};
  const core::Task sent = first;
  ASSERT_TRUE(own->try_push(first));
  std::size_t accepted = 1;
  for (;;) {
    core::Task filler = make_task(0);
    if (!own->try_push(filler)) break;
    ++accepted;
    ASSERT_LT(accepted, 10'000u) << "the own deque never filled";
  }
  EXPECT_EQ(accepted, steal_deque_capacity_for(2));

  core::Task rejected = make_task(6);
  rejected.path = {{7, 8}};
  rejected.branches = {9, 10, 11};
  const core::Task before = rejected;
  EXPECT_FALSE(own->try_push(rejected));
  EXPECT_EQ(tag_of(rejected), tag_of(before));
  EXPECT_EQ(rejected.path, before.path);
  EXPECT_EQ(rejected.branches, before.branches);
  EXPECT_EQ(sched.stats().queue_full_rejections, 2u);

  // A thief steals the oldest task: the first one pushed.
  core::Task out;
  ASSERT_TRUE(sched.acquire(1, sink, out));
  EXPECT_EQ(tag_of(out), tag_of(sent));
  EXPECT_EQ(out.path, sent.path);
  EXPECT_EQ(out.branches, sent.branches);
  EXPECT_EQ(sched.stats().tasks_stolen, 1u);
}

// A thief that finds the victim's ring locked counts a failed probe and
// sweeps again instead of waiting for the lock. Once the lock is free it
// takes the task, and nobody takes it a second time: both workers then go
// idle and the pool terminates. A thief that blocked on the lock would
// make no failed probe in the 5 s the lock is held at most.
TEST(DequeScheduler, LockedVictimRingIsAFailedProbeAndTheTaskMovesOnce) {
  core::CounterSink sink({}, /*workers=*/1);
  DequeScheduler sched(2, /*steal_seed=*/1);
  core::Task t = make_task(7);
  ASSERT_TRUE(sched.sink_for(0)->try_push(t));

  support::Mutex& victim_ring = sched.deque(0).mutex();
  victim_ring.lock();
  core::Task out;
  bool stolen = false;
  std::thread thief([&] { stolen = sched.acquire(1, sink, out); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sched.failed_probes() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(sched.pending(), 1u);  // still queued while the ring is held
  victim_ring.unlock();
  thief.join();

  ASSERT_TRUE(stolen);
  EXPECT_EQ(tag_of(out), 7);
  const auto s = sched.stats();
  EXPECT_EQ(s.tasks_stolen, 1u);
  EXPECT_GE(s.failed_steal_probes, 1u);
  EXPECT_EQ(s.steal_attempts, s.failed_steal_probes + 1);
  EXPECT_EQ(sched.pending(), 0u);

  std::thread owner([&] {
    core::Task none;
    EXPECT_FALSE(sched.acquire(0, sink, none));
  });
  core::Task none;
  EXPECT_FALSE(sched.acquire(1, sink, none));
  owner.join();
  EXPECT_EQ(sched.stats().tasks_stolen, 1u);
}

// The three ways a waiting worker is released, each with no pause before
// it: the calling thread plays worker 0, still busy, and acts as soon as
// worker 1's steal sweep has failed, the step before it goes idle. A
// two-worker scheduler lets an idle worker spin when the host has a CPU to
// spare, and a spinning worker is not a sleeper: no push notifies it, so
// it must see the pending count rise by itself. On a host without a spare
// CPU the worker blocks as a sleeper at once. The StopWake tests below
// cover a worker that is surely blocked.
constexpr int kReleaseRounds = 100;

/// Runs `acquire` for worker 1 on a new thread and returns once its first
/// steal sweep has failed.
std::thread start_idle_worker(DequeScheduler& sched,
                              const std::function<void()>& acquire) {
  std::thread worker(acquire);
  while (sched.failed_probes() == 0) std::this_thread::yield();
  return worker;
}

TEST(DequeScheduler, PushReachesAWaitingThief) {
  core::CounterSink sink({}, /*workers=*/1);
  for (int round = 0; round < kReleaseRounds; ++round) {
    DequeScheduler sched(2, /*steal_seed=*/1);
    int got = -1;
    std::thread thief = start_idle_worker(sched, [&] {
      core::Task out;
      if (sched.acquire(1, sink, out)) got = tag_of(out);
    });
    core::Task t = make_task(round);
    ASSERT_TRUE(sched.sink_for(0)->try_push(t));
    thief.join();
    EXPECT_EQ(got, round);
    EXPECT_EQ(sched.pending(), 0u);
  }
}

TEST(DequeScheduler, LastBusyWorkerReleasesAWaitingWorker) {
  core::CounterSink sink({}, /*workers=*/1);
  for (int round = 0; round < kReleaseRounds; ++round) {
    DequeScheduler sched(2, /*steal_seed=*/1);
    std::thread other = start_idle_worker(sched, [&] {
      core::Task out;
      EXPECT_FALSE(sched.acquire(1, sink, out));
    });
    core::Task out;
    EXPECT_FALSE(sched.acquire(0, sink, out));  // the last to go idle
    other.join();
  }
}

TEST(DequeScheduler, RequestStopReleasesAWaitingWorker) {
  for (int round = 0; round < kReleaseRounds; ++round) {
    core::CounterSink sink({}, /*workers=*/1);
    DequeScheduler sched(2, /*steal_seed=*/1);
    sink.set_stop_waker(&sched);
    std::thread other = start_idle_worker(sched, [&] {
      core::Task out;
      EXPECT_FALSE(sched.acquire(1, sink, out));
    });
    sink.request_stop(core::StopReason::kTreeLimit);
    other.join();
    sink.set_stop_waker(nullptr);
  }
}

TEST(DequeScheduler, PushRejectedAfterStop) {
  core::CounterSink sink({}, /*workers=*/1);
  DequeScheduler sched(2, 1);
  sched.broadcast_stop();
  core::Task t = make_task(1);
  EXPECT_FALSE(sched.sink_for(0)->try_push(t));
  core::Task out;
  EXPECT_FALSE(sched.acquire(0, sink, out));
}

// --- stop-wake latency regression ------------------------------------------
//
// Before the StopWaker hook, CounterSink::request_stop only raised a flag;
// a consumer parked in a scheduler's condition-variable wait stayed parked
// until some *other* worker observed the flag and called broadcast_stop.
// With the waker registered, the stop itself must unpark the consumer.
// The 5 s ceiling is three orders of magnitude above a healthy wake-up; the
// old behavior hangs here forever (no second worker ever broadcasts).
template <typename Scheduler, typename BlockedPop>
void expect_prompt_stop_wake(Scheduler& sched, core::CounterSink& sink,
                             BlockedPop blocked_pop) {
  sink.set_stop_waker(&sched);
  std::atomic<bool> released{false};
  std::thread consumer([&] {
    blocked_pop();
    released.store(true, std::memory_order_release);
  });
  // Let the consumer reach the parked state, then stop WITHOUT broadcast.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(released.load(std::memory_order_acquire));
  sink.request_stop(core::StopReason::kTreeLimit);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!released.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(released.load(std::memory_order_acquire))
      << "consumer still parked 5 s after request_stop";
  consumer.join();
  sink.set_stop_waker(nullptr);
}

TEST(StopWake, RequestStopUnparksCentralQueueConsumer) {
  core::CounterSink sink({}, /*workers=*/1);
  TaskQueue queue(4, /*workers=*/2);  // 1 busy worker remains: pop blocks
  expect_prompt_stop_wake(queue, sink, [&] {
    core::Task t;
    EXPECT_FALSE(queue.pop(sink, t));
  });
}

TEST(StopWake, RequestStopUnparksDequeSchedulerConsumer) {
  core::CounterSink sink({}, /*workers=*/1);
  DequeScheduler sched(2, /*steal_seed=*/1);  // worker 1 never arrives
  expect_prompt_stop_wake(sched, sink, [&] {
    core::Task t;
    EXPECT_FALSE(sched.acquire(0, sink, t));
  });
}

}  // namespace
}  // namespace gentrius::parallel
