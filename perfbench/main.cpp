// perfbench: the repository benchmark.
//
//   perfbench --workload paper256|fleet128|service_mix --seed N
//             --seconds S --trace 0|1 [--smoke] [--pins FILE]
//             [--trace-out FILE] [--record-pins] [--saturate]
//
// Sets up the workload several times (setup_s is the median), builds its
// inputs and host references from the seed, then runs timed rounds for
// about S seconds, checking every output outside the timed calls. The
// last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). A traced run also writes every span as Chrome
// trace-event JSON to --trace-out. Simulated values must repeat exactly
// across the rounds of a run and match --pins; any drift, wrong result or
// typed error makes the run fail with exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "calibrate.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_s_per_volume", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_gflops", "GFLOPS"},
    {"sim_makespan_ms", "sim_ms"},
    {"sim_volumes_per_s", "1/sim_s"},
    {"sim_p50_ms", "sim_ms"},
    {"sim_p90_ms", "sim_ms"},
    {"sim_peak_device_mb", "MB"},
    {"max_err_ratio", "ratio"},
    {"ok_frac", "frac"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.launches", "count"},
    {"sim.host_ms_per_launch", "ms"},
    {"sim.host_ns_per_element", "ns"},
    {"sim.host_cpu_util", "frac"},
    {"sim.kernel.busy_ms", "sim_ms"},
    {"sim.kernel.dram_mb", "MB"},
    {"sim.kernel.dram_amp", "ratio"},
    {"sim.kernel.coalesced_frac", "frac"},
    {"sim.kernel.occupancy", "frac"},
    {"sim.kernel.mem_bound_frac", "frac"},
    {"sim.kernel.pct_copy_bw", "%"},
    {"gpufft.step.z_rank1_ms", "sim_ms"},
    {"gpufft.step.z_rank2_ms", "sim_ms"},
    {"gpufft.step.y_rank1_ms", "sim_ms"},
    {"gpufft.step.y_rank2_ms", "sim_ms"},
    {"gpufft.step.x_fine_ms", "sim_ms"},
    {"gpufft.step.z_rank1_gbs", "GB/s"},
    {"gpufft.step.z_rank2_gbs", "GB/s"},
    {"gpufft.step.y_rank1_gbs", "GB/s"},
    {"gpufft.step.y_rank2_gbs", "GB/s"},
    {"gpufft.step.x_fine_gbs", "GB/s"},
    {"sim.pcie.h2d_mb", "MB"},
    {"sim.pcie.d2h_mb", "MB"},
    {"sim.pcie.busy_ms", "sim_ms"},
    {"sim.engine.compute_occupancy", "frac"},
    {"sim.engine.dma_occupancy", "frac"},
    {"gpufft.sharded.exchange_mb", "MB"},
    {"gpufft.sharded.exchange_frac", "frac"},
    {"gpufft.sharded.exchange_occupancy", "frac"},
    {"gpufft.sharded.compute_occupancy", "frac"},
    {"gpufft.sharded.barrier_ms", "sim_ms"},
    {"gpufft.sharded.host_staging_mb", "MB"},
    {"topology.bisection_gbs", "GB/s"},
    {"gpufft.registry.create_s", "s"},
    {"gpufft.planner.tune_s", "s"},
    {"gpufft.planner.evaluations", "count"},
    {"gpufft.registry.hits", "count"},
    {"gpufft.registry.misses", "count"},
    {"gpufft.registry.hit_ratio", "frac"},
    {"gpufft.cache.twiddle_tables", "count"},
    {"gpufft.cache.workspace_mb", "MB"},
    {"serve.submit_us", "us"},
    {"serve.run_s", "s"},
    {"serve.shard_frac", "frac"},
    {"serve.rejected", "count"},
    {"serve.failures", "count"},
    {"serve.failovers", "count"},
    {"serve.verify_failures", "count"},
    {"serve.offered_per_s", "1/sim_s"},
    {"fft.ref_host_s", "s"},
    {"sim.slowdown_vs_fft", "ratio"},
    {"trace.overhead_frac", "frac"},
    {"trace.spans", "count"},
    {"bench.raw_host_s_per_volume", "s"},
    {"bench.calibration_ratio", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload paper256|fleet128|service_mix "
               "--seed N --seconds S --trace 0|1 [--smoke] [--pins FILE] "
               "[--trace-out FILE] [--record-pins] [--saturate]\n";
  std::exit(2);
}

struct Args {
  Options opts;
  std::string pins_path;
  std::string trace_out = "perfbench-trace.json";
  bool record_pins = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.opts.workload = value();
        have_workload = true;
      } else if (k == "--seed") {
        a.opts.seed = std::stoull(value());
        have_seed = true;
      } else if (k == "--seconds") {
        a.opts.seconds = std::stod(value());
        have_seconds = true;
      } else if (k == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.opts.trace = v == "1";
      } else if (k == "--smoke") {
        a.opts.smoke = true;
      } else if (k == "--saturate") {
        a.opts.saturate = true;
      } else if (k == "--pins") {
        a.pins_path = value();
      } else if (k == "--trace-out") {
        a.trace_out = value();
      } else if (k == "--record-pins") {
        a.record_pins = true;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  if (!(a.opts.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The pin key of this run's simulated values: smoke sizes and saturated
/// schedules pin apart (pins.txt carries no saturated lines).
std::string pin_workload(const Options& o) {
  return o.workload + (o.smoke ? "-smoke" : "") +
         (o.saturate ? "-saturate" : "");
}

/// Compare `sim` against the pins file: lines "<workload> <seed|*> <name>
/// <value>". Returns the mismatches; a missing file pins nothing.
std::vector<std::string> check_pins(const std::string& path, const Options& o,
                                    const MetricMap& sim) {
  std::vector<std::string> out;
  if (path.empty()) return out;
  std::ifstream in(path);
  if (!in) {
    out.push_back("cannot read pins file " + path);
    return out;
  }
  const std::string wl = pin_workload(o);
  const std::string seed = std::to_string(o.seed);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, s, name, value;
    ls >> w >> s >> name >> value;
    if (w != wl || (s != "*" && s != seed)) continue;
    const auto it = sim.find(name);
    if (it == sim.end()) {
      out.push_back("pinned " + name + " was not measured");
    } else if (number(it->second.value) != value) {
      out.push_back("simulated " + name + " drifted: " +
                    number(it->second.value) + " != pinned " + value);
    }
  }
  return out;
}

/// EXPERIMENTS.md's Table 7 GTX cells (steps within half a unit of the
/// printed 4.31 / 5.46 ms) and Figure 1's GTX bar. The model gives 88.657
/// GFLOPS, which bench_fig_gflops prints as 88.7 while EXPERIMENTS.md
/// still reads 88.6, so that cell is allowed one unit of its last digit.
std::vector<std::string> check_paper_cells(const MetricMap& sim) {
  struct Cell {
    const char* name;
    double expected;
    double tolerance;
  };
  static const Cell kCells[] = {
      {"sim_gflops", 88.6, 0.1},
      {"gpufft.step.z_rank1_ms", 4.31, 0.005},
      {"gpufft.step.z_rank2_ms", 4.31, 0.005},
      {"gpufft.step.y_rank1_ms", 4.31, 0.005},
      {"gpufft.step.y_rank2_ms", 4.31, 0.005},
      {"gpufft.step.x_fine_ms", 5.46, 0.005},
  };
  std::vector<std::string> out;
  for (const auto& c : kCells) {
    const auto it = sim.find(c.name);
    if (it == sim.end() ||
        !(std::abs(it->second.value - c.expected) <= c.tolerance)) {
      out.push_back(std::string(c.name) + " = " +
                    (it == sim.end() ? "missing" : number(it->second.value)) +
                    ", EXPERIMENTS.md says " + number(c.expected));
    }
  }
  return out;
}

double host_s_per_volume(const RoundResult& r) {
  return r.volumes > 0 ? r.host_s / static_cast<double>(r.volumes) : 0.0;
}

/// Per-layer host metrics of a traced run: span self times over the traced
/// stretch (every setup, prepare, and rounds 1..), and the tracing
/// overhead against round 0, which ran untraced.
void add_traced_metrics(const Tracer& tracer,
                        const std::vector<RoundResult>& rounds,
                        MetricMap& out) {
  const auto self = tracer.self_times();
  auto self_s = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.self_s;
  };
  auto count = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  auto per_call = [&](const char* name) {
    return count(name) > 0 ? self_s(name) / count(name) : 0.0;
  };
  auto set = [&out](const char* name, double v, const char* unit) {
    out[name] = Metric{v, unit};
  };
  double launches = 0.0, elements = 0.0, wall = 0.0, cpu = 0.0;
  std::vector<double> traced;
  for (std::size_t k = 1; k < rounds.size(); ++k) {
    const auto it = rounds[k].sim.find("sim.launches");
    launches += it == rounds[k].sim.end() ? 0.0 : it->second.value;
    elements += rounds[k].elements;
    wall += rounds[k].host_s;
    cpu += rounds[k].cpu_s;
    if (rounds[k].volumes > 0) traced.push_back(host_s_per_volume(rounds[k]));
  }
  // Host time inside the library: the execute calls, or the service's
  // drain, which runs every transform.
  const double exec_s = self_s("gpufft.execute") + self_s("serve.run");
  const double setups = count("bench.setup") + count("bench.resetup");
  set("sim.host_ms_per_launch", launches > 0 ? 1e3 * exec_s / launches : 0.0,
      "ms");
  set("sim.host_ns_per_element", elements > 0 ? 1e9 * exec_s / elements : 0.0,
      "ns");
  set("sim.host_cpu_util", wall > 0 ? cpu / wall : 0.0, "frac");
  set("gpufft.registry.create_s", self_s("gpufft.registry.create") / setups,
      "s");
  set("gpufft.planner.tune_s", self_s("gpufft.planner.tune") / setups, "s");
  set("serve.submit_us", 1e6 * per_call("serve.submit"), "us");
  set("serve.run_s", per_call("serve.run"), "s");
  const double ref_s = per_call("fft.reference");
  const double traced_s = median(traced);
  const double untraced_s = host_s_per_volume(rounds.front());
  set("fft.ref_host_s", ref_s, "s");
  set("sim.slowdown_vs_fft", ref_s > 0 ? traced_s / ref_s : 0.0, "ratio");
  set("trace.overhead_frac",
      untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0.0, "frac");
  set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
}

void print_table(const MetricMap& m, const MetricSpec* specs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = m.find(specs[i].name);
    std::printf("  %-36s %16.6g %s\n", specs[i].name,
                it == m.end() ? 0.0 : it->second.value, specs[i].unit);
  }
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const MetricMap& m,
                        const MetricSpec* specs, std::size_t n) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = m.find(specs[i].name);
    double v = it == m.end() ? 0.0 : it->second.value;
    if (!std::isfinite(v)) v = 0.0;
    s += (i == 0 ? "\"" : ", \"") + std::string(specs[i].name) +
         "\": {\"value\": " + number(v) + ", \"unit\": \"" + specs[i].unit +
         "\"}";
  }
  return s + "}}";
}

int run(const Args& args) {
  const Options& o = args.opts;
  auto wl = make_workload(o);
  if (!wl) usage("unknown workload " + o.workload);

  Tracer tracer;
  if (o.trace) active_tracer() = &tracer;

  // One setup_s sample repeats setup() for at least kSetupSampleS so
  // that microsecond set-ups still give a steady figure; only the first
  // call of a sample is traced.
  constexpr double kSetupSampleS = 0.05;
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    Tracer* const traced = active_tracer();
    const auto t0 = Clock::now();
    std::size_t calls = 0;
    do {
      const Span s("bench.setup");
      wl->setup();
      ++calls;
      active_tracer() = nullptr;
    } while (seconds_since(t0) < kSetupSampleS);
    setup_s.push_back(seconds_since(t0) / static_cast<double>(calls));
    active_tracer() = traced;
  };
  // Host times are scaled by the calibration loop timed around the work
  // they cover (calibrate.h).
  const double cal_setup_begin = calibration_s();
  for (int i = 0; i < wl->setup_repeats(); ++i) timed_setup();
  const double setup_cal = 0.5 * (cal_setup_begin + calibration_s());
  {
    const Span s("bench.prepare");
    wl->prepare();
  }

  // Rounds run until --seconds have passed. A traced run leaves its first
  // round untraced so the two can be compared (the tracing overhead).
  std::vector<RoundResult> rounds;
  std::vector<double> round_cal;
  const std::size_t min_rounds = o.trace ? 2 : 1;
  const auto t_start = Clock::now();
  while (rounds.size() < min_rounds || seconds_since(t_start) < o.seconds) {
    active_tracer() = o.trace && !rounds.empty() ? &tracer : nullptr;
    if (!rounds.empty() && wl->fresh_setup_per_round()) {
      const Span s("bench.resetup");
      wl->setup();
    }
    const double cal_begin = calibration_s();
    {
      const Span s("bench.round");
      rounds.push_back(wl->run_round());
    }
    round_cal.push_back(0.5 * (cal_begin + calibration_s()));
  }
  active_tracer() = nullptr;

  // Correctness: every round's own checks, simulated values identical
  // across rounds, and the pins.
  std::size_t attempted = 0, failed = 0;
  double max_err = 0.0;
  std::vector<std::string> errors;
  for (const auto& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    max_err = std::max(max_err, r.max_err_ratio);
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  }
  const MetricMap& sim = rounds.front().sim;
  for (std::size_t k = 1; k < rounds.size(); ++k) {
    for (const auto& [name, m] : rounds[k].sim) {
      const auto it = sim.find(name);
      if (it == sim.end() || number(it->second.value) != number(m.value)) {
        ++failed;
        errors.push_back("round " + std::to_string(k) + ": simulated " + name +
                         " differs from round 0");
      }
    }
  }
  std::vector<std::string> drift = check_pins(args.pins_path, o, sim);
  if (o.workload == "paper256" && !o.smoke) {
    const auto cells = check_paper_cells(sim);
    drift.insert(drift.end(), cells.begin(), cells.end());
  }
  failed += drift.size();
  attempted += drift.size();
  errors.insert(errors.end(), drift.begin(), drift.end());

  if (args.record_pins) {
    for (const auto& [name, m] : sim) {
      std::printf("pin %s %s %s %s\n", pin_workload(o).c_str(),
                  std::to_string(o.seed).c_str(), name.c_str(),
                  number(m.value).c_str());
    }
  }

  MetricMap out = sim;
  auto set = [&out](const char* name, double v, const char* unit) {
    out[name] = Metric{v, unit};
  };
  std::vector<double> per_volume, raw_per_volume;
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    if (rounds[k].volumes == 0) continue;
    raw_per_volume.push_back(host_s_per_volume(rounds[k]));
    per_volume.push_back(raw_per_volume.back() * kCalibrationReferenceS /
                         round_cal[k]);
  }
  set("setup_s", median(setup_s) * kCalibrationReferenceS / setup_cal, "s");
  set("host_s_per_volume", median(per_volume), "s");
  set("bench.raw_host_s_per_volume", median(raw_per_volume), "s");
  round_cal.push_back(setup_cal);
  set("bench.calibration_ratio", median(round_cal) / kCalibrationReferenceS,
      "ratio");
  set("peak_rss_mb", peak_rss_mb(), "MB");
  set("max_err_ratio", max_err, "ratio");
  const std::size_t ok = attempted - std::min(failed, attempted);
  set("ok_frac",
      attempted > 0 ? static_cast<double>(ok) / static_cast<double>(attempted)
                    : 0.0,
      "frac");

  std::printf("perfbench %s seed %llu%s: %zu setups, %zu rounds\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.smoke ? " (smoke)" : "", setup_s.size(), rounds.size());
  if (o.trace) {
    add_traced_metrics(tracer, rounds, out);
    std::printf("per-layer metrics:\n");
    print_table(out, kPerLayer, std::size(kPerLayer));
    std::printf("tracing overhead: %+.2f%% host time per volume over the "
                "untraced first round (%zu spans)\n",
                100.0 * out["trace.overhead_frac"].value,
                tracer.spans().size());
    if (!tracer.write_chrome_json(args.trace_out)) {
      errors.push_back("cannot write trace " + args.trace_out);
      ++failed;
    } else {
      std::printf("trace: %s\n", args.trace_out.c_str());
    }
  } else {
    std::printf("end-to-end metrics:\n");
    print_table(out, kEndToEnd, std::size(kEndToEnd));
    std::printf("host time before calibration: %.6g s/volume, setup %.6g s; "
                "machine at %.3f x the calibration reference\n",
                out["bench.raw_host_s_per_volume"].value, median(setup_s),
                out["bench.calibration_ratio"].value);
  }

  for (const auto& e : errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  const bool correct = failed == 0;
  const std::string json =
      o.trace ? result_json(correct, attempted, failed, out, kPerLayer,
                            std::size(kPerLayer))
              : result_json(correct, attempted, failed, out, kEndToEnd,
                            std::size(kEndToEnd));
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
