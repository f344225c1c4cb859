// Design ablation: work stealing vs. static initial split, and (with
// --schedulers) central queue vs. distributed per-worker deques.
//
// The paper motivates the thread pool with Figure 3: the initial split can
// assign nearly all work to one thread. This harness compares the full
// work-stealing pool against a split-only baseline (identical except tasks
// are never offered) across a corpus. Expected shape: stealing matches or
// beats the static split everywhere, with large gaps on imbalanced
// instances; the static split's mean speedup saturates well below N_t.
//
// --schedulers: sweep the Table-2 configuration through both schedulers
// (Options::scheduler) under the virtual-time simulator at
// N_t in {1,2,4,8,16,32,48,96}. The run is fully deterministic, so the
// emitted "SCHED ..." lines are machine-parsable and stable across
// machines; tools/run_benchmarks.py --schedulers turns them into
// BENCH_5.json and the CI regression gate. Expected shape: both schedulers
// within noise at small N_t, the central queue's single lock saturating its
// speedup at high N_t while the deques keep scaling.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "benchutil/corpus.hpp"
#include "benchutil/stats.hpp"

namespace {

const char* sched_name(gentrius::core::Scheduler s) {
  return s == gentrius::core::Scheduler::kCentralQueue ? "central"
                                                       : "distributed";
}

int run_scheduler_sweep() {
  using namespace gentrius;
  core::Options options;
  options.stop.max_stand_trees = 2'000'000;
  options.stop.max_states = 30'000'000;
  vthread::CostModel costs;

  // The Table-2 stand-in: the long-running multi-constraint configuration
  // (also pinned by the golden determinism trace and BENCH_4's throughput
  // probe), which completes without tripping a stopping rule so speedups
  // are comparable across N_t.
  // GENTRIUS_SWEEP_{TAXA,LOCI,MISSING,SEED} override the instance for
  // exploration; BENCH_5.json is generated from the defaults.
  datagen::SimulatedParams params;
  params.n_taxa = 56;
  params.n_loci = 12;
  params.missing_fraction = 0.55;
  params.seed = 7014;
  if (const char* e = std::getenv("GENTRIUS_SWEEP_TAXA"))
    params.n_taxa = std::strtoul(e, nullptr, 10);
  if (const char* e = std::getenv("GENTRIUS_SWEEP_LOCI"))
    params.n_loci = std::strtoul(e, nullptr, 10);
  if (const char* e = std::getenv("GENTRIUS_SWEEP_MISSING"))
    params.missing_fraction = std::strtod(e, nullptr);
  if (const char* e = std::getenv("GENTRIUS_SWEEP_SEED"))
    params.seed = std::strtoull(e, nullptr, 10);
  const auto dataset = datagen::make_simulated(params);
  const auto problem = core::build_problem(dataset.constraints, options);

  const auto serial = vthread::run_virtual(problem, options, 1, costs);
  std::printf("Scheduler sweep (virtual time, Table-2 configuration)\n");
  std::printf("instance %zux%zu missing=%.2f seed=%llu\n", params.n_taxa,
              params.n_loci, params.missing_fraction,
              static_cast<unsigned long long>(params.seed));
  std::printf("SCHED serial makespan=%.0f states=%llu trees=%llu reason=%s\n",
              serial.virtual_makespan,
              static_cast<unsigned long long>(serial.intermediate_states),
              static_cast<unsigned long long>(serial.stand_trees),
              core::to_string(serial.reason));
  std::printf("\n%-12s %4s %12s %8s %8s %8s %8s %6s %6s\n", "scheduler",
              "nt", "makespan", "speedup", "stolen", "attempts", "failed",
              "reject", "depth");
  for (const std::size_t nt : {1UL, 2UL, 4UL, 8UL, 16UL, 32UL, 48UL, 96UL}) {
    for (const core::Scheduler sched :
         {core::Scheduler::kCentralQueue,
          core::Scheduler::kDistributedDeques}) {
      core::Options o = options;
      o.scheduler = sched;
      const auto r = vthread::run_virtual(problem, o, nt, costs);
      const double speedup = serial.virtual_makespan / r.virtual_makespan;
      std::printf("%-12s %4zu %12.0f %8.2f %8llu %8llu %8llu %6llu %6llu\n",
                  sched_name(sched), nt, r.virtual_makespan, speedup,
                  static_cast<unsigned long long>(r.sched.tasks_stolen),
                  static_cast<unsigned long long>(r.sched.steal_attempts),
                  static_cast<unsigned long long>(r.sched.failed_steal_probes),
                  static_cast<unsigned long long>(
                      r.sched.queue_full_rejections),
                  static_cast<unsigned long long>(r.sched.max_queue_depth));
      // The machine-parsable record behind the table above.
      std::printf(
          "SCHED scheduler=%s nt=%zu makespan=%.2f speedup=%.4f "
          "tasks_offered=%llu tasks_stolen=%llu steal_attempts=%llu "
          "failed_probes=%llu rejections=%llu max_depth=%llu\n",
          sched_name(sched), nt, r.virtual_makespan, speedup,
          static_cast<unsigned long long>(r.tasks_offered),
          static_cast<unsigned long long>(r.sched.tasks_stolen),
          static_cast<unsigned long long>(r.sched.steal_attempts),
          static_cast<unsigned long long>(r.sched.failed_steal_probes),
          static_cast<unsigned long long>(r.sched.queue_full_rejections),
          static_cast<unsigned long long>(r.sched.max_queue_depth));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gentrius;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--schedulers") == 0) return run_scheduler_sweep();
  }
  const double scale = benchutil::parse_scale(argc, argv);

  core::Options options;
  options.stop.max_stand_trees = 200'000;
  options.stop.max_states = 1'500'000;
  vthread::CostModel costs;

  const auto corpus = benchutil::simulated_corpus(
      static_cast<std::size_t>(48 * scale), /*seed0=*/141);

  std::printf("Work-stealing ablation (pool vs static initial split)\n");
  std::vector<double> pool_speedup[2], static_speedup[2];
  const std::size_t threads_of[2] = {8, 16};
  std::size_t used = 0;
  double worst_ratio = 1.0;
  std::string worst_name;
  for (const auto& ds : corpus) {
    core::Problem problem;
    try {
      problem = core::build_problem(ds.constraints, options);
    } catch (const support::Error&) {
      continue;
    }
    const auto probe = vthread::run_virtual(problem, options, 16, costs);
    if (probe.reason != core::StopReason::kCompleted ||
        probe.virtual_makespan < 5'000)
      continue;
    const auto serial = vthread::run_virtual(problem, options, 1, costs);
    ++used;
    for (int i = 0; i < 2; ++i) {
      const auto pool =
          vthread::run_virtual(problem, options, threads_of[i], costs);
      const auto stat = vthread::run_virtual_static_split(
          problem, options, threads_of[i], costs);
      pool_speedup[i].push_back(serial.virtual_makespan /
                                pool.virtual_makespan);
      static_speedup[i].push_back(serial.virtual_makespan /
                                  stat.virtual_makespan);
      const double ratio = stat.virtual_makespan / pool.virtual_makespan;
      if (i == 1 && ratio > worst_ratio) {
        worst_ratio = ratio;
        worst_name = ds.name;
      }
    }
  }

  std::printf("%zu datasets\n\n%-26s %10s %s\n", used, "configuration",
              "threads", "speedup  mean  [q1 median q3]  (min..max)");
  for (int i = 0; i < 2; ++i) {
    std::printf("%-26s %10zu %s\n", "work-stealing pool", threads_of[i],
                benchutil::format_distribution(
                    benchutil::Distribution::of(pool_speedup[i]))
                    .c_str());
    std::printf("%-26s %10zu %s\n", "static split only", threads_of[i],
                benchutil::format_distribution(
                    benchutil::Distribution::of(static_speedup[i]))
                    .c_str());
  }
  if (!worst_name.empty())
    std::printf("\nlargest imbalance rescued by stealing: %.1fx on %s\n",
                worst_ratio, worst_name.c_str());
  return 0;
}
