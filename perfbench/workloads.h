// The benchmark's three seeded workloads over the library's public entry
// points (see perfbench/README.md for why each exists and which layers it
// stresses or bypasses).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;     ///< seconds-sized problem for the self-tests
  bool saturate = false;  ///< service_mix: every request arrives at t = 0
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// What one timed round measured and checked.
struct RoundResult {
  double host_s = 0.0;       ///< wall seconds inside the timed calls
  double cpu_s = 0.0;        ///< process CPU seconds over the same calls
  std::size_t volumes = 0;   ///< volumes transformed
  double elements = 0.0;     ///< complex elements transformed
  std::size_t attempted = 0;
  std::size_t failed = 0;    ///< wrong results, typed errors, rejections, drops
  double max_err_ratio = 0.0;
  std::vector<std::string> errors;
  /// Simulated-clock values and deterministic counts: every round of a
  /// run must reproduce them exactly, and pins.txt pins them per seed.
  MetricMap sim;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Device or group construction, plan creation and tuning: the work
  /// setup_s times. Each call starts from scratch.
  virtual void setup() = 0;
  /// Build the inputs and the host references (untimed).
  virtual void prepare() = 0;
  /// One timed round plus its (untimed) output checks.
  virtual RoundResult run_round() = 0;
  /// Whether every round needs a fresh setup() (the service drains one
  /// request stream per fleet so its simulated timeline starts at zero).
  [[nodiscard]] virtual bool fresh_setup_per_round() const { return false; }
  /// setup() calls per run whose median is setup_s.
  [[nodiscard]] virtual int setup_repeats() const { return 3; }
};

std::unique_ptr<Workload> make_workload(const Options& opts);

}  // namespace perfbench
