// Virtual-time execution of parallel Gentrius.
//
// The paper's evaluation platform is a 48-core Xeon; this reproduction runs
// where only one hardware core may be available, so parallel *speedups*
// cannot be observed from wall-clock time. Instead, this driver executes
// the identical scheduling policy as src/parallel — N_t workers, the same
// scheduler selected by Options::scheduler (the paper's bounded central
// queue with its capacity rule, or the distributed per-worker steal deques
// with seeded victim selection), the same ≥3-remaining-taxa splitting rule,
// the same batched counter publication — as a deterministic
// discrete-event simulation: each worker has a virtual clock, the globally
// earliest runnable worker is stepped, and every operation is charged from
// an explicit cost model. Load imbalance, speedup plateaus, stopping-rule
// distortions and super-linear effects then emerge from exactly the
// mechanism the paper describes, independent of host parallelism.
//
// Because workers are stepped in virtual-time order by a single OS thread,
// the simulation is fully deterministic and repeatable. That guarantee is
// enforced mechanically: `python3 tools/gentrius_lint --rules determinism`
// (the lint_determinism CTest test) rejects wall-clock reads, ambient
// randomness and unordered iteration in this directory, and the scheduler
// state is guarded by a Clang thread-safety SequentialRole capability (see
// docs/TOOLING.md).
#pragma once

#include <cstddef>
#include <optional>

#include "gentrius/options.hpp"
#include "gentrius/problem.hpp"

namespace gentrius::vthread {

/// Virtual cost of each operation, in abstract work units. One unit ~ one
/// state expansion (the paper measures "hundreds of thousands of states per
/// second", so 1 unit corresponds to a few microseconds of real time).
struct CostModel {
  /// Per counted state, stand tree or dead end; a step that counts nothing
  /// (a backtrack that exhausts, a stop) is charged one unit too.
  double state_cost = 1.0;
  double replay_cost = 0.15;  ///< per insertion when replaying a stolen task's path
  double rewind_cost = 0.05;  ///< per removal returning to I0
  double queue_cost = 0.5;    ///< one queue push or pop (critical section)
  double spawn_cost = 200.0;  ///< per-thread creation/teardown (N_t > 1 only)

  // Distributed-scheduler terms (Options::Scheduler::kDistributedDeques),
  // mirroring parallel::StealDeque, a bounded ring behind one mutex per
  // worker. The owner's push/pop locks its own ring, which is uncontended
  // except during a thief's O(1) swap — cheap and never serialized against
  // other workers. A steal try_locks the victim's ring, so thieves
  // targeting the same deque get it one at a time (a thief that finds it
  // held sweeps again); steals are modeled as a serial resource per deque
  // (an operation begins no earlier than the previous steal's completion)
  // while owner operations are charged flat and unserialized. The owner/thief race for the final
  // element is deliberately not modeled: it costs one lock hand-over, is
  // rare (it needs a one-element deque and a simultaneous probe), and
  // either resolution keeps the task counted exactly once.
  double steal_attempt_cost = 0.05;  ///< probing one victim deque
  double failed_probe_cost = 0.02;   ///< surcharge when the probe found nothing
  double deque_owner_cost = 0.08;    ///< one owner push/pop (uncontended lock)
  double deque_steal_cost = 0.3;     ///< one steal hand-off (serialized per deque)
  /// Per-op surcharge on the central queue's mutex for each *additional*
  /// worker sharing it (same shape as flush_contention): hand-off of a
  /// contended cache line costs roughly linearly in the number of cores
  /// bouncing it, so a lock shared by 48 workers is far more expensive per
  /// acquisition than an uncontended one. The per-worker deques do not pay
  /// this term — owner traffic is private and thief traffic serializes
  /// only on the one deque being robbed, which deque_steal_cost's serial-
  /// resource treatment already represents.
  double queue_contention = 0.15;
  /// Atomic counter publication: a few hundred ns = a few percent of a state
  /// expansion (paper §III-B cites [18]: up to a few thousand cycles).
  double flush_cost = 0.02;
  double flush_contention = 0.0015;  ///< extra cost per extra thread

  // Sharded-run terms (decompose::run_sharded on the virtual backend): a
  // decomposed run dispatches each shard as its own simulation and merges
  // the results afterwards. Dispatch covers building the shard sub-problem
  // and seeding its workers (same order of magnitude as spawn_cost); merge
  // covers the product / stats combination per shard. Charged by the
  // sharded driver, not by run_virtual itself, so monolithic simulations
  // are unaffected: the sharded makespan is the sum over executed shards of
  // dispatch + shard makespan + merge (decompose/sharded.hpp).
  double shard_dispatch_cost = 150.0;  ///< per shard: sub-problem build + seed
  double shard_merge_cost = 30.0;      ///< per shard: count/stats combination
};

struct VirtualRules {
  /// Stopping rule 3 measured on the virtual clock (work units) instead of
  /// wall-clock seconds. Unset = no virtual time limit. Checked before each
  /// step, so a step that counts a whole last-taxon frame, or a whole
  /// two-taxon frame in closed form, finishes it first.
  std::optional<double> max_virtual_time;
};

/// Runs Gentrius on n_threads virtual workers. The returned Result carries
/// the virtual makespan in Result::virtual_makespan (Result::seconds is the
/// real single-core time the simulation itself took). For n_threads == 1
/// this is sequential Gentrius with virtual-time accounting (no spawn or
/// queue costs), the denominator of every speedup in the benchmarks.
/// Simulated workers see each other's stop requests only between steps, and
/// a counting step may cover a whole last-taxon frame or a whole two-taxon
/// frame (enumerator.hpp), so under a stopping rule with n_threads > 1 a
/// worker may finish the frame it is counting before it stops.
core::Result run_virtual(const core::Problem& problem,
                         const core::Options& options, std::size_t n_threads,
                         const CostModel& costs = {},
                         const VirtualRules& rules = {});

/// Ablation: initial split only, no work stealing.
core::Result run_virtual_static_split(const core::Problem& problem,
                                      const core::Options& options,
                                      std::size_t n_threads,
                                      const CostModel& costs = {},
                                      const VirtualRules& rules = {});

}  // namespace gentrius::vthread
