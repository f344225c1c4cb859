// Run configuration and result types for Gentrius.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "phylo/taxon_set.hpp"

namespace gentrius::core {

/// The three stopping rules of the paper (§II-B): the run terminates when
/// the stand-tree count, the intermediate-state count, or the wall-clock
/// time exceeds its limit. Paper defaults: 10^6 trees, 10^7 states, 168 h.
struct StoppingRules {
  std::uint64_t max_stand_trees = 1'000'000;
  std::uint64_t max_states = 10'000'000;
  double max_seconds = 168.0 * 3600.0;
};

/// Which work-distribution scheduler the parallel drivers use (real pool
/// and virtual-time simulator alike; serial runs ignore it).
///
///  * kCentralQueue — the paper's §III design: one bounded mutex/condvar
///    queue shared by all workers, capacity N_t+1 (N_t < 8) or N_t/2.
///    Paper-faithful and the default.
///  * kDistributedDeques — per-worker bounded deques with owner-local LIFO
///    push/pop, FIFO steals under deterministically seeded victim
///    selection, and atomic busy-count termination detection. Removes the
///    central queue's lock serialization and capacity starvation at high
///    thread counts (the scalability extension; see docs/PERFORMANCE.md).
///
/// Both schedulers produce identical tree/state/dead-end counts and the
/// identical stand set when the stopping rules do not fire.
enum class Scheduler : std::uint8_t { kCentralQueue, kDistributedDeques };

inline const char* to_string(Scheduler s) {
  switch (s) {
    case Scheduler::kCentralQueue: return "central-queue";
    case Scheduler::kDistributedDeques: return "distributed-deques";
  }
  return "?";
}

/// Former instance decomposition mode. Nothing reads it: every driver runs
/// the one instance it is given, and decompose::run_sharded (src/decompose,
/// DESIGN.md "Decomposition") is the one way into decomposition. It stays
/// declared only because the wall-clock benchmark (wallbench/workloads.cpp)
/// still assigns Options::decompose; it goes when that benchmark is rebuilt
/// on in-engine measurement (ROADMAP.md item 5, "Measure inside the
/// engine").
enum class Decompose : std::uint8_t { kOff, kComponents };

inline const char* to_string(Decompose d) {
  switch (d) {
    case Decompose::kOff: return "off";
    case Decompose::kComponents: return "components";
  }
  return "?";
}

struct Options {
  /// Heuristic 1: start from the constraint tree sharing the most taxa with
  /// the others (paper §II-B). Off = start from `initial_constraint`
  /// (default 0).
  bool select_initial_tree = true;

  /// Heuristic 2: dynamic taxon insertion — always insert the remaining
  /// taxon with the fewest admissible branches. Off = static order (the
  /// given `insertion_order`, a shuffle when `shuffle_seed` is set, or
  /// ascending taxon id).
  bool dynamic_taxon_order = true;

  /// Dynamic-order selection rule. The paper's future work proposes
  /// exploring different insertion-order heuristics; besides the published
  /// min-branches rule, this library implements a most-constrained-first
  /// variant (taxon appearing in the most active constraint trees, ties by
  /// fewest branches). See bench_insertion_heuristics.
  enum class DynamicVariant : std::uint8_t { kMinBranches, kMostConstrained };
  DynamicVariant dynamic_variant = DynamicVariant::kMinBranches;

  /// Explicit initial agile tree (index into the constraint list).
  std::optional<std::size_t> initial_constraint;

  /// Explicit static insertion order (must be a permutation of the taxa
  /// missing from the initial agile tree). Implies dynamic order off.
  std::vector<phylo::TaxonId> insertion_order;

  /// Shuffle the static order with this seed (heuristic-ablation mode).
  std::optional<std::uint64_t> shuffle_seed;

  /// Maintain the double-edge mappings incrementally across taxon
  /// insertions/removals (default) instead of recomputing every active
  /// constraint at each state. Results are identical; only the per-state
  /// cost changes (see bench_mapping_update and the paper's §V profiling
  /// remark that mapping updates consume 15-30 % of runtime).
  bool incremental_mappings = true;

  StoppingRules stop;

  /// Collect the stand trees themselves (canonical form), up to
  /// collect_limit per enumerator.
  bool collect_trees = false;
  std::size_t collect_limit = 1'000'000;

  /// When set and collect_trees is on, stand trees are stored as canonical
  /// Newick with these labels; otherwise as the compact id-based canonical
  /// encoding. The pointee must outlive the run (not owned).
  const phylo::TaxonSet* tree_names = nullptr;

  /// Batched global-counter updates (paper §III-B): a thread publishes its
  /// local counts every 2^10 stand trees / 2^13 states / 2^10 dead ends.
  /// Every driver uses them; the only worker of a run also publishes at the
  /// unit that reaches a tree or state limit, so one-worker runs stop
  /// exactly at their limits (counters.hpp).
  std::uint32_t tree_flush_batch = 1u << 10;
  std::uint32_t state_flush_batch = 1u << 13;
  std::uint32_t dead_end_flush_batch = 1u << 10;

  /// Work-distribution scheduler for the parallel drivers.
  Scheduler scheduler = Scheduler::kCentralQueue;

  /// Seed for the distributed scheduler's randomized victim selection
  /// (per-worker streams are derived as steal_seed ^ worker id). The
  /// virtual-time simulator's schedule is a deterministic function of this
  /// seed; the real pool's task totals are seed-independent.
  std::uint64_t steal_seed = 0x57ea1u;

  /// Ignored (see enum Decompose above).
  Decompose decompose = Decompose::kOff;
};

enum class StopReason : std::uint8_t {
  kCompleted,   ///< full stand enumerated
  kTreeLimit,   ///< stopping rule 1
  kStateLimit,  ///< stopping rule 2
  kTimeLimit,   ///< stopping rule 3
  kEmptyStand,  ///< constraints mutually incompatible; stand is empty
};

inline const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::kCompleted: return "completed";
    case StopReason::kTreeLimit: return "tree-limit";
    case StopReason::kStateLimit: return "state-limit";
    case StopReason::kTimeLimit: return "time-limit";
    case StopReason::kEmptyStand: return "empty-stand";
  }
  return "?";
}

/// Scheduler observability, aggregated over all workers of a run. The
/// central queue reports its pops as steals (every hand-off crosses the
/// shared queue); the distributed scheduler counts only cross-worker
/// transfers — owner-local pop-backs appear in tasks_executed alone.
struct SchedulerStats {
  std::uint64_t tasks_stolen = 0;          ///< tasks acquired from the queue/deques
  std::uint64_t steal_attempts = 0;        ///< victim probes (central: pops)
  std::uint64_t failed_steal_probes = 0;   ///< probes that found an empty deque
  std::uint64_t queue_full_rejections = 0; ///< offers bounced off a full ring
  std::uint64_t max_queue_depth = 0;       ///< deepest any ring ever got

  void merge(const SchedulerStats& o) {
    tasks_stolen += o.tasks_stolen;
    steal_attempts += o.steal_attempts;
    failed_steal_probes += o.failed_steal_probes;
    queue_full_rejections += o.queue_full_rejections;
    if (o.max_queue_depth > max_queue_depth) max_queue_depth = o.max_queue_depth;
  }
};

/// Candidate-selection work counters, accumulated by each Terrace and
/// aggregated over all workers of a run (Terrace::SelectionStats is an
/// alias for this type): admissible counts vs zero/nonzero-only probes,
/// plus constraint-mapping rebuild sweeps. They count the selection work
/// actually done: a counting run that counts its last two levels in closed
/// form (enumerator.hpp) skips the selections and rebuilds a per-branch
/// search would make there, so its stats are lower than a collecting run's
/// on the same instance. The root check performs the first mapping build
/// (Terrace::initial_state_consistent), so a run that ends with
/// kEmptyStand still counts the rebuilds of its active constraints. Every
/// count is fresh, so cached_counts always reads 0; it stays only because
/// the wall-clock benchmark (wallbench/workloads.cpp) prints it.
struct SelectionStats {
  std::uint64_t fresh_counts = 0;     ///< admissible counts
  std::uint64_t cached_counts = 0;    ///< always 0 (see above)
  std::uint64_t existence_checks = 0; ///< zero/nonzero-only dead-end probes
  std::uint64_t mappings_rebuilt = 0; ///< constraint mapping DFS rebuilds

  void merge(const SelectionStats& o) {
    fresh_counts += o.fresh_counts;
    cached_counts += o.cached_counts;
    existence_checks += o.existence_checks;
    mappings_rebuilt += o.mappings_rebuilt;
  }
};

/// Result-cache observability of a cached decompose::run_sharded (the
/// incremental session's re-enumerations): how much of the run was served
/// from the canonically keyed decompose::ResultCache versus recomputed
/// through the engine. `reused_states` counts the intermediate states the
/// cached shard runs had expanded when first computed — work this run did
/// *not* repeat; `recomputed_states` is the work it did.
struct CacheStats {
  std::uint64_t hits = 0;       ///< lookups answered from cache (components + residual)
  std::uint64_t misses = 0;     ///< lookups that fell through to enumeration
  std::uint64_t evictions = 0;  ///< LRU entries dropped to respect capacity
  std::uint64_t reused_components = 0;      ///< component shards served from cache
  std::uint64_t recomputed_components = 0;  ///< component shards re-enumerated
  std::uint64_t reused_states = 0;      ///< states the cached results stand in for
  std::uint64_t recomputed_states = 0;  ///< states actually expanded this run

  void merge(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    reused_components += o.reused_components;
    recomputed_components += o.recomputed_components;
    reused_states += o.reused_states;
    recomputed_states += o.recomputed_states;
  }
};

/// One shard of a decomposed run (decompose::run_sharded): either a
/// connected component of the constraint-overlap graph or the canonical
/// residual instance that carries the interleaving count (see
/// src/decompose/sharded.hpp and DESIGN.md "Decomposition").
struct ShardStats {
  enum class Kind : std::uint8_t {
    kComponent,  ///< connected component of the taxon-overlap graph
    kResidual,   ///< canonical residual instance (one representative per component)
  };
  Kind kind = Kind::kComponent;
  std::size_t n_taxa = 0;                ///< shard universe size
  std::size_t n_constraints = 0;         ///< constraints in the shard instance
  std::uint64_t stand_trees = 0;         ///< shard stand count
  std::uint64_t intermediate_states = 0;
  std::uint64_t dead_ends = 0;
  StopReason reason = StopReason::kCompleted;
  double virtual_makespan = 0.0;         ///< virtual-backend shard makespan
  /// Cached runs only (run_sharded with a ResultCache): this shard's result
  /// was served from the cache (the stats describe the run that originally
  /// computed it, under this shard's kind).
  bool reused = false;
};

inline const char* to_string(ShardStats::Kind k) {
  switch (k) {
    case ShardStats::Kind::kComponent: return "component";
    case ShardStats::Kind::kResidual: return "residual";
  }
  return "?";
}

struct Result {
  std::uint64_t stand_trees = 0;
  std::uint64_t intermediate_states = 0;
  std::uint64_t dead_ends = 0;
  StopReason reason = StopReason::kCompleted;
  double seconds = 0.0;

  /// Canonical Newick of each enumerated stand tree (when collected).
  std::vector<std::string> trees;

  // Diagnostics.
  std::size_t initial_split_branches = 0;  ///< fan-out at state I0 (0 = no split)
  std::size_t prefix_length = 0;           ///< forced insertions before I0
  std::uint64_t tasks_executed = 0;        ///< work-stealing tasks run (parallel)
  std::uint64_t tasks_offered = 0;         ///< successful task offers (parallel)
  SchedulerStats sched;                    ///< scheduler observability
  /// Selection work actually done, all workers (falls for counting runs,
  /// which count their last two levels without selecting there).
  SelectionStats selection;
  double virtual_makespan = 0.0;           ///< virtual-time runs only

  // Decomposed runs only (decompose::run_sharded): per-shard rollups in
  // canonical shard order (components by smallest taxon id, residual last),
  // and whether the product of shard counts saturated std::uint64_t.
  std::vector<ShardStats> shards;
  bool count_saturated = false;
  /// False when the product law does not guarantee stand_trees: a non-zero
  /// product over two or more enumerable components of >= 6 taxa, whose
  /// interleaving count can depend on the component trees' shapes
  /// (DESIGN.md "Decomposition"). Always true for monolithic runs.
  bool count_exact = true;

  // Cached runs only (decompose::run_sharded with a ResultCache, as the
  // incremental session runs it): cache traffic of this run. All-zero for
  // every other run.
  CacheStats cache;
};

// ---- option-combination validation -----------------------------------------

/// Rejects option combinations no driver can honor, with a
/// support::InvalidInput naming the option: a zero counter flush batch, or
/// an explicit insertion_order together with a shuffle_seed. Every driver
/// calls it before running (tests/gentrius/options_validate_test.cpp).
void validate_options(const Options& options);

}  // namespace gentrius::core
