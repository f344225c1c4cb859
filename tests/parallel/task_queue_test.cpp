#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

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

TEST(TaskQueue, CapacityRuleMatchesPaper) {
  EXPECT_EQ(queue_capacity_for(1), 2u);
  EXPECT_EQ(queue_capacity_for(2), 3u);
  EXPECT_EQ(queue_capacity_for(7), 8u);
  EXPECT_EQ(queue_capacity_for(8), 4u);
  EXPECT_EQ(queue_capacity_for(16), 8u);
  EXPECT_EQ(queue_capacity_for(48), 24u);
}

TEST(TaskQueue, RejectsWhenFull) {
  TaskQueue q(2, /*workers=*/2);
  EXPECT_TRUE(push(q, make_task(1)));
  EXPECT_TRUE(push(q, make_task(2)));
  EXPECT_FALSE(push(q, make_task(3)));
}

// The TaskSink contract: a rejected offer leaves the task whole, so the
// producer keeps every branch it tried to hand off.
TEST(TaskQueue, RejectedPushLeavesTheTaskUntouched) {
  TaskQueue q(1, /*workers=*/2);
  ASSERT_TRUE(push(q, make_task(1)));
  core::Task t = make_task(2);
  t.path = {{3, 4}, {5, 6}};
  t.branches = {7, 8, 9};
  const core::Task before = t;
  EXPECT_FALSE(q.try_push(t));
  EXPECT_EQ(t.next_taxon, before.next_taxon);
  EXPECT_EQ(t.path, before.path);
  EXPECT_EQ(t.branches, before.branches);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.stats().queue_full_rejections, 1u);
}

// An accepted task reaches its consumer whole, and size() follows every
// push and pop.
TEST(TaskQueue, PopDeliversThePushedTaskAndSizeFollows) {
  core::CounterSink sink({}, /*workers=*/1);
  TaskQueue q(3, /*workers=*/2);
  std::vector<core::Task> sent;
  for (int tag = 1; tag <= 2; ++tag) {
    core::Task t = make_task(tag);
    t.path = {{static_cast<core::TaxonId>(tag), 10}};
    t.branches = {static_cast<core::EdgeId>(tag), 20};
    sent.push_back(t);
    ASSERT_TRUE(q.try_push(t));
    EXPECT_EQ(q.size(), sent.size());
  }
  for (std::size_t i = 0; i < sent.size(); ++i) {
    core::Task out;
    ASSERT_TRUE(q.pop(sink, out));
    EXPECT_EQ(out.next_taxon, sent[i].next_taxon);
    EXPECT_EQ(out.path, sent[i].path);
    EXPECT_EQ(out.branches, sent[i].branches);
    EXPECT_EQ(q.size(), sent.size() - i - 1);
  }
  const auto s = q.stats();
  EXPECT_EQ(s.max_queue_depth, 2u);
  EXPECT_EQ(s.tasks_stolen, 2u);
}

TEST(TaskQueue, SingleWorkerTerminatesImmediately) {
  core::CounterSink sink({}, /*workers=*/1);
  TaskQueue q(2, 1);
  core::Task out;
  EXPECT_FALSE(q.pop(sink, out));
}

TEST(TaskQueue, HandsTasksFifoAndTerminates) {
  core::CounterSink sink({}, /*workers=*/1);
  TaskQueue q(4, 2);
  ASSERT_TRUE(push(q, make_task(7)));
  ASSERT_TRUE(push(q, make_task(8)));
  // Worker A: takes both tasks, then goes idle; worker B goes idle first.
  std::vector<int> taken;
  std::thread b([&] {
    // B: no tasks for it after A drains; must exit via termination.
    core::Task t;
    while (q.pop(sink, t)) taken.push_back(static_cast<int>(t.next_taxon));
  });
  std::thread a([&] {
    core::Task t;
    while (q.pop(sink, t)) {
      // tasks observed in FIFO order overall
    }
  });
  a.join();
  b.join();
  SUCCEED();  // termination without deadlock is the property under test
}

TEST(TaskQueue, StopReleasesWaiters) {
  core::CounterSink sink({}, /*workers=*/1);
  TaskQueue q(4, 2);
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    core::Task t;
    EXPECT_FALSE(q.pop(sink, t));  // blocks: 1 busy worker remains
    released = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(released.load());
  sink.request_stop(core::StopReason::kTreeLimit);
  q.broadcast_stop();
  waiter.join();
  EXPECT_TRUE(released.load());
}

TEST(TaskQueue, PopReturnsNulloptAfterStopWithTasksStillEnqueued) {
  // A stopping rule fired while the queue still holds work: pop must not
  // hand out the stale tasks, it must report termination.
  core::CounterSink sink({}, /*workers=*/1);
  TaskQueue q(4, /*workers=*/2);
  ASSERT_TRUE(push(q, make_task(1)));
  ASSERT_TRUE(push(q, make_task(2)));
  ASSERT_EQ(q.size(), 2u);
  sink.request_stop(core::StopReason::kStateLimit);
  q.broadcast_stop();
  core::Task out;
  EXPECT_FALSE(q.pop(sink, out));
  EXPECT_FALSE(q.pop(sink, out));
  EXPECT_EQ(q.size(), 2u);  // tasks abandoned, not delivered
}

TEST(TaskQueue, PopHonoursSinkStopEvenWithoutBroadcast) {
  // The sink's stop flag alone (no broadcast_stop yet) must already prevent
  // task hand-out to a worker arriving at pop().
  core::CounterSink sink({}, /*workers=*/1);
  TaskQueue q(4, /*workers=*/2);
  ASSERT_TRUE(push(q, make_task(7)));
  sink.request_stop(core::StopReason::kTreeLimit);
  core::Task out;
  EXPECT_FALSE(q.pop(sink, out));
}

TEST(TaskQueue, TryPushRejectedAfterTermination) {
  // done_ set by broadcast_stop: every subsequent push must be rejected so
  // producers keep their branches instead of leaking them into a dead queue.
  core::CounterSink sink({}, /*workers=*/1);
  TaskQueue q(4, /*workers=*/2);
  q.broadcast_stop();
  EXPECT_FALSE(push(q, make_task(1)));
  EXPECT_EQ(q.size(), 0u);
}

TEST(TaskQueue, TryPushRejectedAfterLastWorkerTerminates) {
  // done_ set by the termination-detection path (last worker idle, queue
  // empty) rather than by broadcast_stop.
  core::CounterSink sink({}, /*workers=*/1);
  TaskQueue q(4, /*workers=*/1);
  core::Task out;
  EXPECT_FALSE(q.pop(sink, out));  // sole worker goes idle: done
  EXPECT_FALSE(push(q, make_task(1)));
}

// The three ways a waiting consumer is released, each with no pause
// before it: the calling thread plays the other, busy worker and acts as
// soon as the consumer has started its pop. A two-worker queue lets its
// consumer spin when the host has a CPU to spare, so the release meets a
// consumer that is still spinning, or one that has not gone idle yet; on a
// host without a spare CPU it meets a blocked one. StopReleasesWaiters
// covers a consumer that is surely blocked.
constexpr int kReleaseRounds = 100;

/// Runs `pop` on a new thread and returns once that thread is about to
/// call it.
std::thread start_consumer(const std::function<void()>& pop) {
  std::atomic<bool> started{false};
  std::thread consumer([&started, pop] {
    started.store(true);
    pop();
  });
  while (!started.load()) std::this_thread::yield();
  return consumer;
}

TEST(TaskQueue, PushReachesAWaitingConsumer) {
  core::CounterSink sink({}, /*workers=*/1);
  for (int round = 0; round < kReleaseRounds; ++round) {
    TaskQueue q(4, /*workers=*/2);
    int got = -1;
    std::thread consumer = start_consumer([&] {
      core::Task t;
      if (q.pop(sink, t)) got = static_cast<int>(t.next_taxon);
    });
    ASSERT_TRUE(push(q, make_task(round)));
    consumer.join();
    EXPECT_EQ(got, round);
    EXPECT_EQ(q.size(), 0u);
  }
}

TEST(TaskQueue, LastBusyWorkerReleasesAWaitingConsumer) {
  core::CounterSink sink({}, /*workers=*/1);
  for (int round = 0; round < kReleaseRounds; ++round) {
    TaskQueue q(4, /*workers=*/2);
    std::thread consumer = start_consumer([&] {
      core::Task t;
      EXPECT_FALSE(q.pop(sink, t));
    });
    core::Task t;
    EXPECT_FALSE(q.pop(sink, t));  // whoever goes idle last terminates
    consumer.join();
  }
}

TEST(TaskQueue, RequestStopReleasesAWaitingConsumer) {
  for (int round = 0; round < kReleaseRounds; ++round) {
    core::CounterSink sink({}, /*workers=*/1);
    TaskQueue q(4, /*workers=*/2);
    sink.set_stop_waker(&q);
    std::thread consumer = start_consumer([&] {
      core::Task t;
      EXPECT_FALSE(q.pop(sink, t));
    });
    sink.request_stop(core::StopReason::kTreeLimit);
    consumer.join();
    sink.set_stop_waker(nullptr);
  }
}

TEST(TaskQueue, ManyThreadsStress) {
  // Producers/consumers hammering the queue; the test asserts clean
  // termination and that every pushed task is consumed at most once.
  core::CounterSink sink({}, /*workers=*/1);
  constexpr std::size_t kWorkers = 8;
  TaskQueue q(queue_capacity_for(kWorkers), kWorkers);
  std::atomic<int> consumed{0};
  std::atomic<int> produced{0};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      // Each worker produces a few tasks while "busy", then drains.
      for (int i = 0; i < 50; ++i) {
        if (push(q, make_task(static_cast<int>(w * 100 + i)))) ++produced;
      }
      core::Task t;
      while (q.pop(sink, t)) {
        ++consumed;
        // Simulate a bit of work and possibly re-push (a tag that does not
        // itself trigger another re-push, or the pool never drains).
        if (t.next_taxon % 5 == 0 && push(q, make_task(1001))) ++produced;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(consumed.load(), produced.load());
}

}  // namespace
}  // namespace gentrius::parallel
