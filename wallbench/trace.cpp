#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace wallbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start = now();
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  if (stack_.empty() || stack_.back() != id)
    throw std::logic_error("wallbench: spans must close in LIFO order");
  stack_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now();
  s.busy = s.end - s.start;
}

void Tracer::aggregate(const std::string& name, double start, double end,
                       double busy, std::uint64_t calls) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.calls = calls;
  s.busy = busy;
  spans_.push_back(std::move(s));
}

void Tracer::write_json(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("wallbench: cannot write " + path);
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d, \"calls\": %llu, "
                 "\"busy\": %.9f}%s\n",
                 i, s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.calls), s.busy,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0)
    throw std::runtime_error("wallbench: cannot finish " + path);
}

}  // namespace wallbench
