// Micro-benchmarks of the engine (google-benchmark).
//
// Paper claims quantified here:
//  * §III-A: a single thread processes "hundreds of thousands of states per
//    second" — BM_SerialStateThroughput reports states/s.
//  * §III-A: reaching another thread's state by replaying a path costs only
//    milliseconds — BM_TaskReplay reports insertions/s for replay+rewind.
//  * §V (future work): updating the branch mappings consumes 15-30 % of the
//    runtime — BM_InsertRemoveOnly vs BM_FullStateExpansion isolates the
//    mapping/selection share of a state expansion.
//  * §III: the pool hands its workers their jobs and waits for them at
//    every run — BM_PoolRoundTrip times that hand-off on its own (an empty
//    two-job run on the parked threads) and inside a short two-thread run.
//  * §III-B: the serial program keeps plain counters; batched publication
//    exists for threads — BM_SerialCountingFrames times a long counting run
//    of run_serial, whose counters flush at the paper's batches.
#include <benchmark/benchmark.h>

#include <cstddef>

#include "benchutil/corpus.hpp"
#include "datagen/dataset.hpp"
#include "gentrius/enumerator.hpp"
#include "gentrius/serial.hpp"
#include "parallel/pool.hpp"
#include "parallel/worker_cache.hpp"
#include "support/rng.hpp"

namespace {

using namespace gentrius;

const datagen::Dataset& bench_dataset() {
  static const datagen::Dataset ds = [] {
    datagen::SimulatedParams p;
    p.n_taxa = 48;
    p.n_loci = 8;
    p.missing_fraction = 0.5;
    p.seed = 4242;
    return datagen::make_simulated(p);
  }();
  return ds;
}

void BM_SerialStateThroughput(benchmark::State& state) {
  core::Options opts;
  opts.stop.max_states = 200'000;
  opts.stop.max_stand_trees = 1'000'000'000;
  const auto problem = core::build_problem(bench_dataset().constraints, opts);
  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto r = core::run_serial(problem, opts);
    states += r.intermediate_states;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states));
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SerialStateThroughput)->Unit(benchmark::kMillisecond);

void BM_SerialStateThroughputMultiConstraint(benchmark::State& state) {
  // The heavy-overlap configuration (56 taxa, 12 loci, 55 % missing): most
  // taxa occur in several constraint trees, so candidate selection runs the
  // multi-constraint preimage-list intersection and every insertion dirties
  // several mappings. This is the configuration the hot-path overhaul is
  // gated on (docs/PERFORMANCE.md); tools/run_benchmarks.py records its
  // states/s into BENCH_4.json.
  datagen::SimulatedParams p;
  p.n_taxa = 56;
  p.n_loci = 12;
  p.missing_fraction = 0.55;
  p.seed = 7014;
  const auto ds = datagen::make_simulated(p);
  core::Options opts;
  opts.stop.max_states = 300'000;
  opts.stop.max_stand_trees = 1'000'000'000;
  const auto problem = core::build_problem(ds.constraints, opts);
  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto r = core::run_serial(problem, opts);
    states += r.intermediate_states;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states));
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SerialStateThroughputMultiConstraint)
    ->Unit(benchmark::kMillisecond);

void BM_SerialCountingFrames(benchmark::State& state) {
  // Instance 18 of the seed-202 batch-6 empirical-like corpus, counted to
  // the end with the tree and state rules lifted: 53.9M stand trees, almost
  // all of them counted in closed form in the last two levels, so the time
  // is mostly counting.
  const auto corpus = benchutil::empirical_corpus(32, 202 * 1000003ULL + 6);
  core::Options opts;
  opts.stop.max_stand_trees = UINT64_MAX;
  opts.stop.max_states = UINT64_MAX;
  const auto problem = core::build_problem(corpus[18].constraints, opts);
  std::uint64_t trees = 0;
  for (auto _ : state) {
    const auto r = core::run_serial(problem, opts);
    trees += r.stand_trees;
  }
  state.counters["trees/s"] = benchmark::Counter(
      static_cast<double>(trees), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SerialCountingFrames)->Unit(benchmark::kMillisecond);

void BM_TaskReplay(benchmark::State& state) {
  core::Options opts;
  const auto problem = core::build_problem(bench_dataset().constraints, opts);
  core::CounterSink sink(opts.stop, /*workers=*/1);

  // The worker sits at the initial split state I0; a scout copy of its
  // Terrace walks admissible insertions from there, building a replayable
  // path exactly like a working thread would when creating a task.
  core::Enumerator worker(problem, opts, sink);
  const auto& prefix = worker.run_prefix(false);
  if (prefix.outcome != core::Enumerator::Prefix::Outcome::kSplit) {
    state.SkipWithError("benchmark instance has no initial split");
    return;
  }
  core::Terrace scout(worker.terrace());  // copy at I0
  support::Rng rng(7);
  core::Task task;
  std::vector<core::EdgeId> branches;
  {
    // First insertion: the split taxon itself.
    scout.choose_static(prefix.split_taxon, branches);
    task.path.emplace_back(prefix.split_taxon, branches[0]);
    scout.insert(prefix.split_taxon, branches[0]);
  }
  while (scout.remaining_count() > 1) {
    const auto choice = scout.choose_dynamic(branches);
    if (choice.complete || choice.dead_end) break;
    const core::EdgeId e = branches[rng.below(branches.size())];
    task.path.emplace_back(choice.taxon, e);
    scout.insert(choice.taxon, e);
  }
  // Delegate the final taxon's branches.
  const auto last = scout.choose_dynamic(branches);
  if (last.complete || last.dead_end || branches.empty()) {
    state.SkipWithError("scout walk ended prematurely");
    return;
  }
  task.next_taxon = last.taxon;
  task.branches = branches;
  std::uint64_t insertions = 0;
  for (auto _ : state) {
    insertions += worker.adopt_task(task);
    worker.rewind_to_split();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(insertions));
  state.counters["replayed_insertions/s"] = benchmark::Counter(
      static_cast<double>(insertions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TaskReplay);

void BM_FullStateExpansion(benchmark::State& state) {
  // choose_dynamic (mapping recomputation + taxon selection) + insert +
  // remove: the complete per-state work of the search.
  core::Options opts;
  const auto problem = core::build_problem(bench_dataset().constraints, opts);
  core::Terrace terrace(problem);
  std::vector<core::EdgeId> branches;
  std::uint64_t n = 0;
  for (auto _ : state) {
    const auto choice = terrace.choose_dynamic(branches);
    if (choice.complete || choice.dead_end) {
      state.SkipWithError("unexpected terminal state");
      return;
    }
    const auto rec = terrace.insert(choice.taxon, branches[0]);
    terrace.remove(rec);
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FullStateExpansion);

void BM_InsertRemoveOnly(benchmark::State& state) {
  // The same mutation without recomputing mappings: the difference to
  // BM_FullStateExpansion is the mapping/selection share.
  core::Options opts;
  const auto problem = core::build_problem(bench_dataset().constraints, opts);
  core::Terrace terrace(problem);
  std::vector<core::EdgeId> branches;
  const auto choice = terrace.choose_dynamic(branches);
  if (choice.complete || choice.dead_end) {
    state.SkipWithError("unexpected terminal state");
    return;
  }
  std::uint64_t n = 0;
  for (auto _ : state) {
    const auto rec = terrace.insert(choice.taxon, branches[0]);
    terrace.remove(rec);
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_InsertRemoveOnly);

enum class RoundTrip { kEmptyRun, kRunParallel };

void BM_PoolRoundTrip(benchmark::State& state, RoundTrip what) {
  // The empty run is the whole hand-off: give two parked threads a job that
  // does nothing and wait until both have returned. The run_parallel case
  // adds the pool's own work on an instance as short as a typical run of
  // wallbench's `corpus` (~0.1 ms serially, 16,497 trees).
  datagen::SimulatedParams p;
  p.n_taxa = 20;
  p.n_loci = 5;
  p.missing_fraction = 0.5;
  p.seed = 4;
  const core::Options opts;
  const auto problem =
      core::build_problem(datagen::make_simulated(p).constraints, opts);
  const parallel::WorkerCache::Job empty = [](std::size_t tid) {
    benchmark::DoNotOptimize(tid);
  };
  for (auto _ : state) {
    if (what == RoundTrip::kEmptyRun) {
      parallel::WorkerCache::shared().run(2, empty);
    } else {
      const auto r = parallel::run_parallel(problem, opts, 2);
      benchmark::DoNotOptimize(r.stand_trees);
    }
  }
}
// Real time: the caller mostly waits, so its CPU time says little.
BENCHMARK_CAPTURE(BM_PoolRoundTrip, empty_run, RoundTrip::kEmptyRun)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_PoolRoundTrip, run_parallel, RoundTrip::kRunParallel)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
