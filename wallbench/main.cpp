// wallbench: wall-clock benchmark of the gentrius-parallel library.
//
//   wallbench --workload <corpus|flood|pam-edits|stand-collect> --seed N
//             --seconds S --trace <0|1> [--tiny] [--inject-mismatch]
//             [--blocks N] [--threads N] [--trace-out FILE]
//             [--git-rev REV] [--source-hash HASH]
//
// Prints the host fingerprint, the metrics as "metric <name> <value> <unit>"
// lines, and as its last line one JSON object: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). wallbench/run.py builds and drives it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "support/invariant.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace wallbench;

struct Args {
  Config config;
  std::string trace_out;
  std::string git_rev = "unknown";
  std::string source_hash = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "wallbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        a.config.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        a.config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        a.config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        a.config.trace = value() != "0";
      } else if (arg == "--tiny") {
        a.config.tiny = true;
      } else if (arg == "--inject-mismatch") {
        a.config.inject_mismatch = true;
      } else if (arg == "--blocks") {
        a.config.blocks = std::stoul(value());
      } else if (arg == "--threads") {
        a.config.threads = std::stoul(value());
      } else if (arg == "--trace-out") {
        a.trace_out = value();
      } else if (arg == "--git-rev") {
        a.git_rev = value();
      } else if (arg == "--source-hash") {
        a.source_hash = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.config.seconds > 0.0)) usage("--seconds must be positive");
  if (a.config.blocks < 4 || a.config.blocks > 7) usage("--blocks must be 4..7");
  // At most nproc threads, and at most the 4 the workloads are sized for
  // (--threads; the timed default is 2).
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  a.config.threads = std::clamp<std::size_t>(a.config.threads, 1,
                                             std::min<std::size_t>(4, nproc));
  return a;
}

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

void print_metric(const Metric& m) {
  std::printf("metric %s %.9g %s\n", m.name.c_str(), finite_or_zero(m.value),
              m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Config& cfg = args.config;

  // Debug builds run the GENTRIUS_DCHECK layer, which changes timing (and
  // throws on the closed-form residual at 6-taxon blocks): such a run is
  // reported, but marked invalid.
  const std::string build_type = WALLBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const bool valid =
      build_type == "Release" && ndebug && GENTRIUS_ENABLE_INVARIANTS == 0;
  std::printf(
      "wallbench host nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s "
      "invariants=%d git=%s source=%s valid=%d\n",
      std::thread::hardware_concurrency(), WALLBENCH_CPU, __VERSION__,
      build_type.c_str(), GENTRIUS_ENABLE_INVARIANTS, args.git_rev.c_str(),
      args.source_hash.c_str(), valid ? 1 : 0);
  if (!valid)
    std::printf("wallbench INVALID: not a Release build without invariants\n");

  Checks checks(cfg.inject_mismatch);
  Tracer tracer(cfg.trace);
  Report report;
  try {
    report = run_workload(cfg, checks, tracer);
    tracer.write_json(args.trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("wallbench workload=%s seed=%llu seconds=%g trace=%d threads=%zu %s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.threads,
              report.instance.c_str());
  for (const Metric& m : report.end_to_end) print_metric(m);
  for (const Metric& m : report.per_layer) print_metric(m);
  for (const Metric& m : report.extra) print_metric(m);
  const double mismatch_rate = static_cast<double>(checks.failed()) /
                               static_cast<double>(checks.attempted());
  print_metric({"mismatch_rate", mismatch_rate, "ratio"});

  const auto& metrics = cfg.trace ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": ";
  json += checks.failed() == 0 && valid ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted());
  json += ", \"failed\": " + std::to_string(checks.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", finite_or_zero(metrics[i].value));
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
