// Parked worker threads for the thread pool.
//
// The paper launches its workers through OpenMP, whose runtime keeps the
// thread team parked between parallel regions. WorkerCache does the same
// for run_parallel: a run takes N_t idle threads, hands each one its job,
// waits until every job has returned and puts the threads back. A thread is
// started only when no idle one is left, so the process-wide cache grows to
// the largest number of workers in use at once, and its threads live until
// exit.
//
// Like an OpenMP runtime's idle threads, a waiting thread spins briefly
// before it blocks (support/spin_wait.hpp): a thread that finished its job
// polls its mailbox, and the caller polls the run's count of unfinished
// jobs, for about 0.2 ms each, and then blocks on a condition variable. A
// run spins only when its N_t workers plus the caller fit the machine
// (support::spin_fits); otherwise every wait blocks at once. No lock is
// held while a thread spins.
//
// Concurrent runs, and a run started from inside another run's job, take
// disjoint threads. The cache's lock guards only the idle list: it is never
// held while a job runs or while the caller waits. The completion signal
// (the count of the jobs still running, decremented under the run's mutex,
// which the caller takes before it returns) is the happens-before edge from
// every job's writes to the caller's reads after run() returns.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace gentrius::parallel {

class WorkerCache {
 public:
  /// One worker's job, called with the worker's index in [0, n).
  using Job = std::function<void(std::size_t)>;
  /// Starts a thread that runs `body`. The default starts a std::jthread;
  /// tests substitute one that fails.
  using ThreadStart = std::function<std::jthread(std::function<void()>)>;

  explicit WorkerCache(ThreadStart start = start_thread);
  /// Wakes and joins every thread. No run may be in progress.
  ~WorkerCache();
  WorkerCache(const WorkerCache&) = delete;
  WorkerCache& operator=(const WorkerCache&) = delete;

  /// The cache the pool runs on (a function-local static).
  static WorkerCache& shared();

  /// Calls job(0) … job(n − 1), each on a thread of its own and none on the
  /// calling thread, and returns when every call has returned. All n
  /// threads are taken before any job is handed out: when a thread cannot
  /// be started, the ones taken go back to the idle list and the start's
  /// exception propagates with no job run. `job` must not throw.
  void run(std::size_t n, const Job& job) GENTRIUS_EXCLUDES(mutex_);

 private:
  struct Worker;
  class Batch;

  static std::jthread start_thread(std::function<void()> body);
  static void park(Worker& worker);

  std::vector<Worker*> take(std::size_t n) GENTRIUS_EXCLUDES(mutex_);
  Worker* start_worker() GENTRIUS_EXCLUDES(mutex_);
  void put_back(const std::vector<Worker*>& team) GENTRIUS_EXCLUDES(mutex_);

  const ThreadStart start_;
  support::Mutex mutex_{support::Rank::kWorkerCache};
  std::vector<std::unique_ptr<Worker>> workers_ GENTRIUS_GUARDED_BY(mutex_);
  std::vector<Worker*> idle_ GENTRIUS_GUARDED_BY(mutex_);  // last parked first
};

}  // namespace gentrius::parallel
