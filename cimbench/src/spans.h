#pragma once
// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded around calls into each layer's public functions, from
// the benchmark's side of the API.  They are aggregated by name as they
// close (count, total, self time), so recording costs two clock reads and
// a few adds per span, and nothing is written until the run ends.  A
// span's self time is its duration minus the time its child spans cover.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cimbench {

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

class SpanRecorder {
 public:
  struct Totals {
    std::int64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
    std::int64_t self_ns() const { return total_ns - child_ns; }
  };

  /// Resolves `name` to a stable id once, so hot loops pass an integer.
  int id(const std::string& name) {
    const auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    const int new_id = static_cast<int>(names_.size());
    index_.emplace(name, new_id);
    names_.push_back(name);
    totals_.emplace_back();
    return new_id;
  }

  void begin(int span_id) { open_.push_back({span_id, now_ns(), 0}); }

  /// Closes the innermost open span; returns its duration in ns.
  std::int64_t end() {
    const Open span = open_.back();
    open_.pop_back();
    const std::int64_t duration = now_ns() - span.start_ns;
    Totals& totals = totals_[static_cast<std::size_t>(span.id)];
    ++totals.count;
    totals.total_ns += duration;
    totals.child_ns += span.child_ns;
    if (!open_.empty()) open_.back().child_ns += duration;
    return duration;
  }

  const Totals& totals(const std::string& name) {
    return totals_[static_cast<std::size_t>(id(name))];
  }

  const std::vector<std::string>& names() const { return names_; }
  const Totals& totals_at(std::size_t index) const { return totals_[index]; }

 private:
  struct Open {
    int id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::map<std::string, int> index_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> open_;
};

/// RAII span: begins on construction, ends on destruction.
class Span {
 public:
  Span(SpanRecorder& recorder, int span_id) : recorder_(recorder) {
    recorder_.begin(span_id);
  }
  ~Span() { recorder_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& recorder_;
};

}  // namespace cimbench
