// Host-side spans around every call the benchmark makes into a layer.
//
// A Span records (name, layer, start, end, parent) on the host wall clock.
// Spans stay in memory and are written once, at exit, as Chrome
// trace-event JSON (Perfetto and chrome://tracing open it offline). With
// no tracer installed a Span is one null-pointer test, so untraced runs
// pay nothing measurable.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SpanRecord {
  std::string name;   ///< "<layer>.<call>", e.g. "gpufft.execute"
  double start_us{};  ///< from the tracer's origin
  double dur_us{};
  int parent{-1};     ///< index of the enclosing span, -1 at the root
  double child_us{};  ///< time covered by direct children
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int open(std::string name) {
    SpanRecord r;
    r.name = std::move(name);
    r.start_us = now_us();
    r.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(r));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void close(int id) {
    SpanRecord& r = spans_[static_cast<std::size_t>(id)];
    r.dur_us = now_us() - r.start_us;
    open_.pop_back();
    if (r.parent >= 0) {
      spans_[static_cast<std::size_t>(r.parent)].child_us += r.dur_us;
    }
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Total self time (duration minus direct children) and count per name.
  struct Self {
    double self_s{};
    std::size_t count{};
  };
  [[nodiscard]] std::map<std::string, Self> self_times() const {
    std::map<std::string, Self> out;
    for (const auto& s : spans_) {
      auto& e = out[s.name];
      e.self_s += (s.dur_us - s.child_us) * 1e-6;
      ++e.count;
    }
    return out;
  }

  /// Write every span as a complete ("X") trace event; the category is
  /// the layer (the name up to its first dot). Returns false when the file
  /// cannot be written.
  bool write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char times[80];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                    s.start_us, s.dur_us);
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"cat\":\"" << s.name.substr(0, s.name.find('.'))
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// The installed tracer, or null (untraced run, or a paused stretch).
inline Tracer*& active_tracer() {
  static Tracer* t = nullptr;
  return t;
}

/// RAII span on the active tracer; a no-op when none is installed.
class Span {
 public:
  explicit Span(const char* name) : tracer_(active_tracer()) {
    if (tracer_ != nullptr) id_ = tracer_->open(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

}  // namespace perfbench
