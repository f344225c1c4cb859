// The benchmark's four workloads. Each one generates its inputs from the
// seed, sets up several times (setup_s is the median), then runs interleaved
// rounds of its reference path and its production paths until the time
// budget is spent, checking every result against a reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace wallbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: tiny inputs, and stand-collect counts instead of
  /// collecting.
  bool tiny = false;
  /// Perturbs the first reference comparison, to prove the checks count.
  bool inject_mismatch = false;
  /// stand-collect block size (5: the product law's proven regime).
  std::size_t blocks = 5;
  /// Pool threads. Two leave half of a 4-core shared host free, so a pool
  /// run does not wait on threads the host scheduler has parked.
  std::size_t threads = 2;
};

/// Every comparison of a result with its reference goes through here, so
/// attempted/failed count all of them.
class Checks {
 public:
  explicit Checks(bool inject_mismatch) : inject_(inject_mismatch) {}

  void equal(std::uint64_t got, std::uint64_t want, const std::string& what);
  void expect(bool ok, const std::string& what);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  bool inject_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::string instance;              ///< one-line description of the inputs
  std::vector<Metric> end_to_end;    ///< the JSON metrics of an untraced run
  std::vector<Metric> per_layer;     ///< the JSON metrics of a traced run
  std::vector<Metric> extra;         ///< printed as text lines only
};

Report run_workload(const Config& config, Checks& checks, Tracer& tracer);

}  // namespace wallbench
