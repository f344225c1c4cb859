// Parked pool threads: runs reuse the threads of earlier runs instead of
// starting new ones, concurrent and nested runs get threads of their own,
// and a thread that served a stopped run serves the next run exactly. A
// run's waits spin before they block when the host has a CPU to spare for
// them; every test here holds on either side.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/dataset.hpp"
#include "gentrius/problem.hpp"
#include "gentrius/serial.hpp"
#include "parallel/pool.hpp"
#include "parallel/worker_cache.hpp"
#include "support/sync.hpp"

namespace gentrius {
namespace {

using core::Options;
using core::Result;
using core::Scheduler;
using core::StopReason;

core::Problem instance(std::size_t n_taxa, std::uint64_t seed) {
  datagen::SimulatedParams sp;
  sp.n_taxa = n_taxa;
  sp.n_loci = 5;
  sp.missing_fraction = 0.5;
  sp.seed = seed;
  return core::build_problem(datagen::make_simulated(sp).constraints,
                             Options{});
}

void expect_same_counts(const Result& got, const Result& want) {
  EXPECT_EQ(got.stand_trees, want.stand_trees);
  EXPECT_EQ(got.intermediate_states, want.intermediate_states);
  EXPECT_EQ(got.dead_ends, want.dead_ends);
  EXPECT_EQ(got.reason, want.reason);
}

/// Threads of this process, or -1 where /proc/self/task does not exist.
long thread_count() {
  const std::filesystem::path tasks("/proc/self/task");
  std::error_code ec;
  if (!std::filesystem::is_directory(tasks, ec)) return -1;
  long n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(tasks)) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(WorkerReuse, RunsStartNoThreadsOnceTheCacheIsWarm) {
  if (thread_count() < 0) GTEST_SKIP() << "no /proc/self/task";
  const auto problem = instance(26, 22);
  const Result serial = core::run_serial(problem, Options{});
  expect_same_counts(parallel::run_parallel(problem, Options{}, 4), serial);
  const long warm = thread_count();
  for (const Scheduler sched :
       {Scheduler::kCentralQueue, Scheduler::kDistributedDeques}) {
    Options opts;
    opts.scheduler = sched;
    for (std::size_t run = 0; run < 50; ++run) {
      const std::size_t nt = 2 + run % 3;
      SCOPED_TRACE(std::string(to_string(sched)) + " run " +
                   std::to_string(run));
      expect_same_counts(parallel::run_parallel(problem, opts, nt), serial);
      ASSERT_EQ(thread_count(), warm);
    }
  }
}

TEST(WorkerReuse, ConcurrentCallersGetSerialResults) {
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kRuns = 10;
  std::vector<core::Problem> problems;
  std::vector<Result> serial;
  for (std::size_t c = 0; c < kCallers; ++c) {
    problems.push_back(instance(26, 20 + c));
    serial.push_back(core::run_serial(problems.back(), Options{}));
  }
  std::vector<std::vector<Result>> got(kCallers);
  {
    std::vector<std::jthread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        Options opts;
        for (std::size_t run = 0; run < kRuns; ++run) {
          opts.scheduler = run % 2 == 0 ? Scheduler::kCentralQueue
                                        : Scheduler::kDistributedDeques;
          got[c].push_back(parallel::run_parallel(problems[c], opts, 2));
        }
      });
    }
  }
  for (std::size_t c = 0; c < kCallers; ++c) {
    ASSERT_EQ(got[c].size(), kRuns);
    for (std::size_t run = 0; run < kRuns; ++run) {
      SCOPED_TRACE("caller " + std::to_string(c) + " run " +
                   std::to_string(run));
      expect_same_counts(got[c][run], serial[c]);
    }
  }
}

TEST(WorkerReuse, RunAfterAStopIsExact) {
  const auto problem = instance(32, 21);
  const Result serial = core::run_serial(problem, Options{});
  ASSERT_GT(serial.intermediate_states, 10000u);
  ASSERT_GT(serial.dead_ends, 0u);
  for (const Scheduler sched :
       {Scheduler::kCentralQueue, Scheduler::kDistributedDeques}) {
    for (const std::size_t nt : {2UL, 4UL}) {
      SCOPED_TRACE(std::string(to_string(sched)) + " nt=" +
                   std::to_string(nt));
      Options limited;
      limited.scheduler = sched;
      limited.stop.max_states = 100;
      limited.state_flush_batch = 8;
      const Result stopped = parallel::run_parallel(problem, limited, nt);
      EXPECT_EQ(stopped.reason, StopReason::kStateLimit);
      EXPECT_LT(stopped.intermediate_states, serial.intermediate_states);

      Options unlimited;
      unlimited.scheduler = sched;
      expect_same_counts(parallel::run_parallel(problem, unlimited, nt),
                         serial);
    }
  }
}

/// A thread-start function that counts its calls.
parallel::WorkerCache::ThreadStart counting_start(std::atomic<int>& starts) {
  return [&starts](std::function<void()> body) {
    starts.fetch_add(1);
    return std::jthread(std::move(body));
  };
}

TEST(WorkerCache, StartsThreadsOnlyWhenNoIdleOneIsLeft) {
  std::atomic<int> starts{0};
  parallel::WorkerCache cache(counting_start(starts));
  std::atomic<int> calls{0};
  const auto job = [&calls](std::size_t) { calls.fetch_add(1); };
  cache.run(3, job);
  EXPECT_EQ(starts.load(), 3);
  cache.run(2, job);
  cache.run(3, job);
  EXPECT_EQ(starts.load(), 3);
  cache.run(4, job);
  EXPECT_EQ(starts.load(), 4);
  EXPECT_EQ(calls.load(), 12);
}

TEST(WorkerCache, EachJobRunsOnItsOwnThreadAndNestedRunsTakeOthers) {
  std::atomic<int> starts{0};
  parallel::WorkerCache cache(counting_start(starts));
  support::Mutex mutex{support::Rank::kTest};
  std::vector<std::thread::id> ids;
  const auto record = [&] {
    support::MutexLock lock(mutex);
    ids.push_back(std::this_thread::get_id());
  };
  cache.run(2, [&](std::size_t tid) {
    record();
    if (tid == 0) cache.run(2, [&](std::size_t) { record(); });
  });
  ASSERT_EQ(ids.size(), 4u);
  const std::set<std::thread::id> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), 4u);
  EXPECT_EQ(distinct.count(std::this_thread::get_id()), 0u);
  EXPECT_EQ(starts.load(), 4);
}

// Back-to-back runs meet threads that are still spinning after the last
// job; runs 20 ms apart, far past the spin, meet blocked ones. Either way
// each job runs once, on a thread of its own, before run() returns. The
// records are plain memory written by the jobs and read after run()
// returns, so the TSan build also checks the completion's happens-before.
TEST(WorkerCache, EachJobRunsOnceOnItsOwnThreadWhetherSpinningOrBlocked) {
  parallel::WorkerCache cache;
  int calls[2] = {0, 0};
  std::thread::id ids[2];
  const auto job = [&](std::size_t tid) {
    ++calls[tid];
    ids[tid] = std::this_thread::get_id();
  };
  const auto check_run = [&](const std::string& what) {
    SCOPED_TRACE(what);
    calls[0] = calls[1] = 0;
    cache.run(2, job);
    EXPECT_EQ(calls[0], 1);
    EXPECT_EQ(calls[1], 1);
    EXPECT_NE(ids[0], ids[1]);
    EXPECT_NE(ids[0], std::this_thread::get_id());
    EXPECT_NE(ids[1], std::this_thread::get_id());
  };
  for (int run = 0; run < 200; ++run)
    check_run("back-to-back run " + std::to_string(run));
  for (int run = 0; run < 5; ++run) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    check_run("spaced run " + std::to_string(run));
  }
}

TEST(WorkerCache, DestroyedRightAfterARunJoinsItsThreads) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> exited{0};
    std::atomic<int> calls{0};
    {
      parallel::WorkerCache cache([&exited](std::function<void()> body) {
        return std::jthread([&exited, body = std::move(body)] {
          body();
          exited.fetch_add(1);
        });
      });
      cache.run(2, [&calls](std::size_t) { calls.fetch_add(1); });
      EXPECT_EQ(calls.load(), 2);
    }  // the threads may still be spinning for their next job here
    EXPECT_EQ(exited.load(), 2) << "round " << round;
  }
}

}  // namespace
}  // namespace gentrius
