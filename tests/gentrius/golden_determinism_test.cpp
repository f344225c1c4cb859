// Golden determinism test: the optimized engine must make bit-identical
// decisions to the seed implementation.
//
// A reference trace was recorded from the seed engine (the implementation
// predating the hot-path overhaul of PR 4) over a fixed corpus of instances:
// for every state of a depth-first enumeration driven directly through the
// Terrace API, the chosen taxon, its admissible-branch list (content and
// order), dead-end attribution, and the canonical stand set are folded into
// an FNV-1a hash; the first events are also kept verbatim so a mismatch
// names the first diverging decision. Serial, virtual N_t in {2,4,8} and
// real-pool N_t in {2,4} runs are pinned by their counts plus a stand-set
// hash. Any change to remaining_-iteration order, early-exit tie-breaking,
// branch collection order or task splitting shows up here.
//
// Regenerate (only when intentionally changing engine semantics):
//   GENTRIUS_GOLDEN_REGEN=1 ./golden_determinism_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchutil/corpus.hpp"
#include "datagen/dataset.hpp"
#include "decompose/sharded.hpp"
#include "gentrius/enumerator.hpp"
#include "gentrius/serial.hpp"
#include "gentrius/terrace.hpp"
#include "parallel/pool.hpp"
#include "phylo/topology.hpp"
#include "vthread/virtual_pool.hpp"

#ifndef GENTRIUS_GOLDEN_DIR
#error "GENTRIUS_GOLDEN_DIR must point at tests/data"
#endif

namespace gentrius::core {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

struct Hasher {
  std::uint64_t h = kFnvOffset;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= kFnvPrime;
    }
  }
  void mix_string(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnvPrime;
    }
  }
};

struct Instance {
  std::string name;
  bool empirical = false;
  datagen::SimulatedParams sim;
  datagen::EmpiricalLikeParams emp;
  Options::DynamicVariant variant = Options::DynamicVariant::kMinBranches;
  bool incremental = true;
  std::uint64_t event_cap = 200'000;  ///< hard stop for the mini-DFS
};

std::vector<Instance> corpus() {
  std::vector<Instance> out;
  const auto sim = [&](const char* name, std::size_t taxa, std::size_t loci,
                       double miss, std::uint64_t seed) {
    Instance in;
    in.name = name;
    in.sim.n_taxa = taxa;
    in.sim.n_loci = loci;
    in.sim.missing_fraction = miss;
    in.sim.seed = seed;
    out.push_back(in);
    return out.size() - 1;
  };
  sim("bench_default_48x8", 48, 8, 0.5, 4242);
  sim("multi_constraint_56x12", 56, 12, 0.55, 7014);
  sim("dead_end_heavy_56x12", 56, 12, 0.55, 7025);
  sim("dense_loci_56x20", 56, 20, 0.5, 9031);
  const std::size_t mc = sim("most_constrained_48x8", 48, 8, 0.5, 4242);
  out[mc].variant = Options::DynamicVariant::kMostConstrained;
  const std::size_t rc = sim("recompute_mode_56x12", 56, 12, 0.55, 7014);
  out[rc].incremental = false;
  {
    Instance in;
    in.name = "empirical_rogue_72x16";
    in.empirical = true;
    in.emp.n_taxa = 72;
    in.emp.n_loci = 16;
    in.emp.seed = 509;
    out.push_back(in);
  }
  return out;
}

Problem make_problem(const Instance& in, const Options& opts) {
  if (in.empirical)
    return build_problem(datagen::make_empirical_like(in.emp).constraints,
                         opts);
  return build_problem(datagen::make_simulated(in.sim).constraints, opts);
}

/// Depth-first enumeration driven directly through the Terrace API,
/// recording every decision the selection heuristic makes. Returns the
/// number of events; fills the hash and the verbatim head of the stream.
std::uint64_t trace_dfs(Terrace& terrace, Options::DynamicVariant variant,
                        std::uint64_t event_cap, Hasher& hash,
                        std::vector<std::string>& head) {
  constexpr std::size_t kHeadEvents = 64;
  std::uint64_t events = 0;
  std::vector<EdgeId> branches;
  struct Frame {
    TaxonId taxon;
    std::vector<EdgeId> branches;
    std::size_t next = 0;
    InsertRecord rec;
    bool applied = false;
  };
  std::vector<Frame> stack;
  bool choosing = true;
  for (;;) {
    if (events >= event_cap) break;
    if (choosing) {
      const auto choice = terrace.choose_dynamic(branches, variant);
      ++events;
      std::ostringstream line;
      if (choice.complete) {
        const std::string enc = phylo::canonical_encoding(terrace.agile());
        hash.mix_string("T");
        hash.mix_string(enc);
        line << "tree " << enc;
        choosing = false;
      } else if (choice.dead_end) {
        hash.mix_string("D");
        hash.mix(choice.taxon);
        line << "dead " << choice.taxon;
        choosing = false;
      } else {
        hash.mix_string("C");
        hash.mix(choice.taxon);
        hash.mix(branches.size());
        for (const EdgeId e : branches) hash.mix(e);
        line << "choose " << choice.taxon << " [";
        for (std::size_t i = 0; i < branches.size(); ++i)
          line << (i ? "," : "") << branches[i];
        line << "]";
        Frame f;
        f.taxon = choice.taxon;
        f.branches = branches;
        stack.push_back(std::move(f));
      }
      if (head.size() < kHeadEvents) head.push_back(line.str());
      if (choosing) {
        Frame& f = stack.back();
        f.rec = terrace.insert(f.taxon, f.branches[f.next++]);
        f.applied = true;
      }
      continue;
    }
    // Backtrack.
    bool advanced = false;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.applied) {
        terrace.remove(f.rec);
        f.applied = false;
      }
      if (f.next < f.branches.size()) {
        f.rec = terrace.insert(f.taxon, f.branches[f.next++]);
        f.applied = true;
        choosing = true;
        advanced = true;
        break;
      }
      stack.pop_back();
    }
    if (!advanced) break;
  }
  // Unwind anything left (event cap hit mid-tree).
  while (!stack.empty()) {
    if (stack.back().applied) terrace.remove(stack.back().rec);
    stack.pop_back();
  }
  return events;
}

std::uint64_t stand_set_hash(std::vector<std::string> trees) {
  std::sort(trees.begin(), trees.end());
  Hasher h;
  for (const auto& t : trees) {
    h.mix_string(t);
    h.mix_string("|");
  }
  return h.h;
}

/// One line per fact; the whole report is compared verbatim.
std::string build_report() {
  std::ostringstream out;
  for (const Instance& in : corpus()) {
    Options opts;
    opts.dynamic_variant = in.variant;
    opts.incremental_mappings = in.incremental;
    opts.stop.max_states = 400'000;
    opts.stop.max_stand_trees = 1'000'000'000;
    opts.collect_trees = true;
    const auto problem = make_problem(in, opts);

    out << "instance " << in.name << "\n";

    // 1. Terrace-level decision trace.
    {
      Terrace terrace(problem, in.incremental);
      Hasher hash;
      std::vector<std::string> head;
      const std::uint64_t events =
          trace_dfs(terrace, in.variant, in.event_cap, hash, head);
      out << "  dfs_events " << events << "\n";
      out << "  dfs_hash " << hash.h << "\n";
      for (const auto& line : head) out << "  ev " << line << "\n";
    }

    // 2. Serial engine counts and stand set.
    const auto serial = run_serial(problem, opts);
    out << "  serial states " << serial.intermediate_states << " trees "
        << serial.stand_trees << " dead_ends " << serial.dead_ends
        << " reason " << to_string(serial.reason) << "\n";
    out << "  serial stand_hash " << stand_set_hash(serial.trees) << "\n";

    // 3. Virtual pools: counts and stand sets must match serial exactly.
    for (const std::size_t nt : {2UL, 4UL, 8UL}) {
      const auto r = vthread::run_virtual(problem, opts, nt);
      out << "  virtual nt=" << nt << " states " << r.intermediate_states
          << " trees " << r.stand_trees << " dead_ends " << r.dead_ends
          << " stand_hash " << stand_set_hash(r.trees) << "\n";
    }

    // 4. Real pools (scheduling is nondeterministic, totals are not).
    for (const std::size_t nt : {2UL, 4UL}) {
      const auto r = parallel::run_parallel(problem, opts, nt);
      out << "  pool nt=" << nt << " trees " << r.stand_trees
          << " stand_hash " << stand_set_hash(r.trees) << "\n";
    }

    // 5/6. The distributed scheduler implements the same decomposition, so
    // its counts and stand sets are pinned to the same values — virtual
    // runs deterministically, real pools by totals.
    {
      Options dopts = opts;
      dopts.scheduler = Scheduler::kDistributedDeques;
      for (const std::size_t nt : {2UL, 4UL, 8UL}) {
        const auto r = vthread::run_virtual(problem, dopts, nt);
        out << "  virtual-deques nt=" << nt << " states "
            << r.intermediate_states << " trees " << r.stand_trees
            << " dead_ends " << r.dead_ends << " stand_hash "
            << stand_set_hash(r.trees) << "\n";
        // The deque *schedule* itself (not just its totals) is a pure
        // function of the seed under the simulator: pin the virtual
        // makespan and steal count so cost-model or deque-protocol edits
        // that shift the schedule are visible here. Makespan is printed in
        // centi-units to stay stable under float formatting.
        out << "  deques-schedule nt=" << nt << " makespan_cu "
            << static_cast<std::uint64_t>(r.virtual_makespan * 100.0 + 0.5)
            << " stolen " << r.sched.tasks_stolen << " steal_attempts "
            << r.sched.steal_attempts << "\n";
      }
      for (const std::size_t nt : {2UL, 4UL}) {
        const auto r = parallel::run_parallel(problem, dopts, nt);
        out << "  pool-deques nt=" << nt << " trees " << r.stand_trees
            << " stand_hash " << stand_set_hash(r.trees) << "\n";
      }
    }
  }

  // 7. Sharded decomposition (PR 8; appended so every earlier block stays
  // byte-frozen). Multi-component instances through the sharded drivers:
  // the canonical shard order and per-shard rollups are pinned verbatim,
  // counts and stand sets across serial / virtual / pool backends must
  // agree with each other, and the virtual sharded schedule (makespan in
  // centi-units) pins the CostModel shard_dispatch/merge charges.
  for (const std::uint64_t seed : {101ULL, 202ULL}) {
    benchutil::MultiComponentParams params;
    params.n_components = 2;
    params.min_taxa_per_component = 4;
    params.max_taxa_per_component = 5;
    params.loci_per_component = 2;
    params.seed = seed;
    const auto ds = benchutil::make_multi_component(params);
    out << "instance decompose_" << ds.name << "\n";

    Options opts;
    opts.collect_trees = true;

    const auto serial = decompose::run_sharded(ds.constraints, opts);
    out << "  sharded serial trees " << serial.stand_trees << " states "
        << serial.intermediate_states << " dead_ends " << serial.dead_ends
        << " reason " << to_string(serial.reason) << "\n";
    for (const auto& s : serial.shards)
      out << "  " << decompose::shard_trace_line(s) << "\n";
    out << "  sharded serial stand_hash " << stand_set_hash(serial.trees)
        << "\n";

    for (const std::size_t nt : {2UL, 4UL, 8UL}) {
      decompose::ShardRunOptions run;
      run.backend = decompose::ShardBackend::kVirtual;
      run.n_threads = nt;
      const auto r = decompose::run_sharded(ds.constraints, opts, run);
      out << "  sharded virtual nt=" << nt << " trees " << r.stand_trees
          << " states " << r.intermediate_states << " stand_hash "
          << stand_set_hash(r.trees) << " makespan_cu "
          << static_cast<std::uint64_t>(r.virtual_makespan * 100.0 + 0.5)
          << "\n";
    }

    for (const std::size_t nt : {2UL}) {
      decompose::ShardRunOptions run;
      run.backend = decompose::ShardBackend::kPool;
      run.n_threads = nt;
      const auto r = decompose::run_sharded(ds.constraints, opts, run);
      out << "  sharded pool nt=" << nt << " trees " << r.stand_trees
          << " stand_hash " << stand_set_hash(r.trees) << "\n";
      for (const auto& s : r.shards)
        out << "  " << decompose::shard_trace_line(s) << "\n";
    }
  }
  return out.str();
}

TEST(GoldenDeterminism, MatchesSeedEngineTrace) {
  const std::string path =
      std::string(GENTRIUS_GOLDEN_DIR) + "/golden_trace.txt";
  const std::string report = build_report();
  if (std::getenv("GENTRIUS_GOLDEN_REGEN") != nullptr) {
    std::ofstream f(path);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << report;
    GTEST_SKIP() << "golden trace regenerated at " << path;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "missing golden file " << path
                        << " (regenerate with GENTRIUS_GOLDEN_REGEN=1)";
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string golden = buf.str();

  if (report == golden) return;
  // Diff line by line so the first diverging decision is named.
  std::istringstream ra(report), rb(golden);
  std::string la, lb;
  std::size_t line = 0;
  for (;;) {
    const bool ga = static_cast<bool>(std::getline(ra, la));
    const bool gb = static_cast<bool>(std::getline(rb, lb));
    ++line;
    if (!ga && !gb) break;
    ASSERT_EQ(ga, gb) << "report length diverges at line " << line;
    ASSERT_EQ(la, lb) << "first divergence at line " << line;
  }
  FAIL() << "reports differ but no line mismatch found";
}

}  // namespace
}  // namespace gentrius::core
