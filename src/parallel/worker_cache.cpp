#include "parallel/worker_cache.hpp"

#include <utility>

#include "support/spin_wait.hpp"

namespace gentrius::parallel {

/// One parked thread and its mailbox. The thread is declared last, so it is
/// joined before the mailbox it waits on is destroyed.
struct WorkerCache::Worker {
  Worker() = default;
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  ~Worker() {
    {
      support::MutexLock lock(mutex);
      exit = true;
      posted.store(true);
    }
    wake.notify_one();
  }

  /// Hands this idle worker the job `next_tid` of `next`.
  void give(Batch& next, std::size_t next_tid) {
    {
      support::MutexLock lock(mutex);
      batch = &next;
      tid = next_tid;
      posted.store(true);
    }
    wake.notify_one();
  }

  /// Set, under `mutex`, when the mailbox holds a job or the exit; cleared,
  /// under `mutex`, when the thread takes the job. A spinning thread polls
  /// it, then reads the mailbox under `mutex`.
  support::PolledAtomic<bool> posted{false};
  support::Mutex mutex{support::Rank::kWorkerCache};
  support::CondVar wake;
  Batch* batch GENTRIUS_GUARDED_BY(mutex) = nullptr;
  std::size_t tid GENTRIUS_GUARDED_BY(mutex) = 0;
  bool exit GENTRIUS_GUARDED_BY(mutex) = false;
  std::jthread thread;
};

/// One run: its job, whether its waits spin, and the number of calls that
/// have not returned yet. It lives on the caller's stack until
/// wait_for_all() returns.
class WorkerCache::Batch {
 public:
  Batch(const Job& job, std::size_t n)
      : job_(job), spin_(support::spin_fits(n)), pending_(n) {}

  /// Whether the run's waits spin before they block.
  bool spins() const { return spin_; }

  void run_one(std::size_t tid) GENTRIUS_EXCLUDES(mutex_) {
    job_(tid);
    support::MutexLock lock(mutex_);
    // Decremented and notified under the lock: the caller takes the lock
    // before it destroys this batch, so nothing touches it after the
    // unlock.
    if (pending_.fetch_sub(1) == 1) done_.notify_one();
  }

  void wait_for_all() GENTRIUS_EXCLUDES(mutex_) {
    if (spin_) support::spin_until([this] { return pending_.load() == 0; });
    support::MutexLock lock(mutex_);
    while (pending_.load() > 0) done_.wait(mutex_);
  }

 private:
  const Job& job_;
  const bool spin_;
  support::PolledAtomic<std::size_t> pending_;
  support::Mutex mutex_{support::Rank::kWorkerCache};
  support::CondVar done_;
};

WorkerCache::WorkerCache(ThreadStart start) : start_(std::move(start)) {}

WorkerCache::~WorkerCache() {
  std::vector<std::unique_ptr<Worker>> workers;
  {
    support::MutexLock lock(mutex_);
    workers.swap(workers_);
  }
  // Each Worker's destructor wakes its thread and joins it, with no lock
  // of the cache held.
}

WorkerCache& WorkerCache::shared() {
  static WorkerCache cache;
  return cache;
}

std::jthread WorkerCache::start_thread(std::function<void()> body) {
  return std::jthread(std::move(body));
}

void WorkerCache::park(Worker& worker) {
  bool spin = false;  // the last run's decision; a new thread blocks at once
  for (;;) {
    if (spin) support::spin_until([&worker] { return worker.posted.load(); });
    Batch* batch = nullptr;
    std::size_t tid = 0;
    {
      support::MutexLock lock(worker.mutex);
      while (worker.batch == nullptr && !worker.exit)
        worker.wake.wait(worker.mutex);
      if (worker.batch == nullptr) return;  // exit
      batch = std::exchange(worker.batch, nullptr);
      tid = worker.tid;
      worker.posted.store(false);
    }
    // Read before the job: the batch may be gone once run_one returns.
    spin = batch->spins();
    batch->run_one(tid);
  }
}

void WorkerCache::run(std::size_t n, const Job& job) {
  const std::vector<Worker*> team = take(n);
  Batch batch(job, n);
  for (std::size_t tid = 0; tid < n; ++tid) team[tid]->give(batch, tid);
  batch.wait_for_all();
  put_back(team);
}

std::vector<WorkerCache::Worker*> WorkerCache::take(std::size_t n) {
  std::vector<Worker*> team;
  team.reserve(n);
  std::size_t missing = n;
  {
    support::MutexLock lock(mutex_);
    for (; missing > 0 && !idle_.empty(); --missing) {
      team.push_back(idle_.back());
      idle_.pop_back();
    }
  }
  try {
    for (; missing > 0; --missing) team.push_back(start_worker());
  } catch (...) {
    put_back(team);
    throw;
  }
  return team;
}

WorkerCache::Worker* WorkerCache::start_worker() {
  auto worker = std::make_unique<Worker>();
  Worker* w = worker.get();
  worker->thread = start_([w] { park(*w); });
  support::MutexLock lock(mutex_);
  workers_.push_back(std::move(worker));
  // Every worker fits the idle list, so put_back never reallocates.
  idle_.reserve(workers_.capacity());
  return w;
}

void WorkerCache::put_back(const std::vector<Worker*>& team) {
  support::MutexLock lock(mutex_);
  for (Worker* worker : team) idle_.push_back(worker);
}

}  // namespace gentrius::parallel
