// In-memory span recorder for the traced run.
//
// Spans are opened and closed by the benchmark's own code around calls into
// the library's public functions: name, start, end, parent. Calls that happen
// once per search state (taxon selection, tree surgery) are folded into one
// aggregate span per enclosing call that carries the call count and the
// summed busy time, so a multi-million-state search costs a handful of
// records. Nothing is written until write_json() at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace wallbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 at top level
  std::uint64_t calls = 1;
  double busy = 0.0;   ///< summed duration of the folded calls
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open span; returns its index, or -1
  /// when tracing is off (then close(-1) is a no-op).
  int open(const std::string& name);
  void close(int id);

  /// Records an aggregate of `calls` folded calls that were busy for `busy`
  /// seconds inside [start, end] (tracer seconds), under the innermost open
  /// span.
  void aggregate(const std::string& name, double start, double end,
                 double busy, std::uint64_t calls);

  /// Seconds since the tracer was created.
  double now() const;

  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; free when the tracer is off.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace wallbench
