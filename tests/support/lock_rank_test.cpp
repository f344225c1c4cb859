// Runtime lock-rank validator (support/sync.hpp).
//
// The static half of the hierarchy lives in gentrius-analyze's lock-rank
// rule; these tests cover the dynamic half: the thread-local held-rank
// stack that every Mutex::lock() checks in debug/sanitizer builds. A
// seeded rank inversion must throw InternalError *before* blocking on the
// mutex (the test would deadlock otherwise), and the validator itself
// must be race-free under concurrent lockers — the TSan preset runs this
// file via the `parallel` ctest label.
//
// In release builds (GENTRIUS_ENABLE_INVARIANTS == 0) the validator
// compiles to nothing, so the inversion tests skip themselves; the
// well-ordered tests still run everywhere as plain locking smoke tests.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/invariant.hpp"
#include "support/sync.hpp"

namespace gentrius::support {
namespace {

TEST(LockRank, IncreasingAcquisitionIsClean) {
  Mutex low(Rank::kTaskQueue);
  Mutex high(Rank::kSchedulerSignal);
  MutexLock outer(low);
  MutexLock inner(high);  // strictly increasing: fine in every build
}

TEST(LockRank, SequentialAcquisitionNeedsNoOrder) {
  Mutex low(Rank::kTaskQueue);
  Mutex high(Rank::kSchedulerSignal);
  { MutexLock a(high); }
  { MutexLock b(low); }  // nothing held in between: any order is fine
}

TEST(LockRank, InvertedAcquisitionThrowsBeforeBlocking) {
#if GENTRIUS_ENABLE_INVARIANTS
  Mutex low(Rank::kTaskQueue);
  Mutex high(Rank::kSchedulerSignal);
  MutexLock outer(high);
  // The DCHECK fires before low.m_.lock(), so the test cannot deadlock
  // even though `low` is free — the *order* is the defect.
  EXPECT_THROW({ MutexLock inner(low); }, InternalError);
#else
  GTEST_SKIP() << "rank validator is compiled out without invariants";
#endif
}

TEST(LockRank, EqualRankIsAnInversion) {
#if GENTRIUS_ENABLE_INVARIANTS
  Mutex a(Rank::kTest);
  Mutex b(Rank::kTest);
  MutexLock outer(a);
  EXPECT_THROW({ MutexLock inner(b); }, InternalError);
#else
  GTEST_SKIP() << "rank validator is compiled out without invariants";
#endif
}

TEST(LockRank, TryLockRecordsHeldRank) {
#if GENTRIUS_ENABLE_INVARIANTS
  Mutex low(Rank::kTaskQueue);
  Mutex high(Rank::kSchedulerSignal);
  ASSERT_TRUE(high.try_lock());
  EXPECT_THROW(low.lock(), InternalError);
  high.unlock();
  low.lock();  // nothing held anymore: clean
  low.unlock();
#else
  GTEST_SKIP() << "rank validator is compiled out without invariants";
#endif
}

TEST(LockRank, RecoversAfterDiagnosedInversion) {
#if GENTRIUS_ENABLE_INVARIANTS
  Mutex low(Rank::kTaskQueue);
  Mutex high(Rank::kSchedulerSignal);
  {
    MutexLock outer(high);
    EXPECT_THROW(low.lock(), InternalError);
  }
  // The failed acquisition must not have corrupted the held stack.
  MutexLock a(low);
  MutexLock b(high);
#else
  GTEST_SKIP() << "rank validator is compiled out without invariants";
#endif
}

// Validator race-freedom: many threads nest the same two ranked mutexes in
// the correct order. The held-rank stack is thread-local, so TSan must see
// no data race in the bookkeeping itself, and no thread may observe a
// spurious inversion from another thread's holdings.
TEST(LockRank, ValidatorIsRaceFreeUnderContention) {
  Mutex low(Rank::kTaskQueue);
  Mutex high(Rank::kSchedulerSignal);
  int shared = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        MutexLock outer(low);
        MutexLock inner(high);
        ++shared;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(shared, 4 * 2000);
}

// An exiting thread's thread_locals are destroyed before the static
// objects, and a static object's destructor may still lock a Mutex: the
// pool's parked-thread cache wakes and joins its threads that way at exit.
// So the held-rank stack must stay usable after its own thread_local
// destruction. Here a thread_local constructed before the stack, hence
// destroyed after it, locks on the way out; a stack with heap storage
// would be written after it was freed (ASan and TSan report it).
TEST(LockRank, LockingAfterThreadLocalDestructionIsClean) {
  Mutex mu(Rank::kTest);
  int locked_on_exit = 0;
  std::thread([&] {
    struct LocksOnExit {
      Mutex& mu;
      int& count;
      ~LocksOnExit() {
        MutexLock lock(mu);
        ++count;
      }
    };
    thread_local LocksOnExit guard{mu, locked_on_exit};
    MutexLock lock(mu);  // the stack's first use on this thread
  }).join();
  EXPECT_EQ(locked_on_exit, 1);
}

}  // namespace
}  // namespace gentrius::support
