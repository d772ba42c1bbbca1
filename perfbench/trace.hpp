// In-memory span recorder for the traced benchmark run. Spans go around the
// benchmark's calls into each simulator layer (per launch and per kernel),
// never per instruction; with tracing off a Scope costs one branch. The
// spans are written at exit as a Chrome trace (JSON array format), the same
// format `st2sim --timeline` writes.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "perfbench/stats.hpp"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Stable storage for a span name built at run time.
  std::string_view intern(std::string name) {
    return *names_.insert(std::move(name)).first;
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string_view name, int op) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op;
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open_.pop_back();
  }

  /// Writes every span as a Chrome-trace complete ("X") event; the span's
  /// operation id and parent index ride in `args`.
  bool write_chrome(const std::string& path) const {
    std::ofstream os(path);
    os << std::fixed << std::setprecision(3) << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << static_cast<double>(s.start_ns) / 1e3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
         << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent
         << "}}";
    }
    os << "\n]\n";
    return static_cast<bool>(os);
  }

 private:
  bool on_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
  std::unordered_set<std::string> names_;
};

/// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, std::string_view name, int op)
      : t_(t), idx_(t.on() ? t.begin(name, op) : -1) {}
  ~Scope() {
    if (idx_ >= 0) t_.end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

}  // namespace perfbench
