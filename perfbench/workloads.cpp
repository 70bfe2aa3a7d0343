#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <optional>
#include <span>
#include <stdexcept>

#include "common/metrics.h"
#include "common/rng.h"
#include "fft/plan.h"
#include "fft/real.h"
#include "gpufft/cache.h"
#include "gpufft/real3d.h"
#include "gpufft/registry.h"
#include "gpufft/sharded.h"
#include "serve/fft_service.h"
#include "sim/cpumodel.h"
#include "sim/device_group.h"
#include "sim/topology/peer_mesh.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace repro;
using gpufft::Direction;
using gpufft::PlanDesc;

constexpr double kMB = 1024.0 * 1024.0;

/// service_mix mean inter-arrival gap. Saturating the full menu on the
/// 4 x 8800 GTS mesh (`--saturate`) completes 100 requests at about 520
/// simulated volumes/s; 70% of that is 364/s, i.e. one request every
/// 1000/364 ms on average.
constexpr double kServiceMeanGapMs = 1000.0 / (0.7 * 520.0);
/// Seed of service_mix's request schedule (see ServiceMix::prepare).
constexpr std::uint64_t kScheduleSeed = 20081115;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Accumulates host wall and CPU time over the timed calls of a round.
class PhaseClock {
 public:
  void start() {
    wall0_ = Clock::now();
    cpu0_ = cpu_seconds();
  }
  void stop() {
    wall_s_ += seconds_since(wall0_);
    cpu_s_ += cpu_seconds() - cpu0_;
  }
  void into(RoundResult& r) const {
    r.host_s = wall_s_;
    r.cpu_s = cpu_s_;
  }

 private:
  Clock::time_point wall0_{};
  double cpu0_ = 0.0;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
};

bool bit_identical(std::span<const cxf> a, std::span<const cxf> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].re != b[i].re || a[i].im != b[i].im) return false;
  }
  return true;
}

/// Record one checked volume: relative L2 error against the host
/// reference, as a share of fft_error_bound, and bit identity with
/// `golden` when one is given. NaN and anything past the bound count as a
/// wrong result.
void check_volume(RoundResult& r, const std::string& what,
                  std::span<const cxf> out, std::span<const cxf> ref,
                  std::size_t logical_volume,
                  std::span<const cxf> golden = {}) {
  if (!golden.empty() && !bit_identical(out, golden)) {
    ++r.failed;
    r.errors.push_back(what + ": not bit-identical to out-of-core");
  }
  const double ratio = rel_l2_error<float>(out, ref) /
                       fft_error_bound<float>(logical_volume);
  r.max_err_ratio = std::max(r.max_err_ratio, ratio);
  if (!(ratio <= 1.0)) {
    ++r.failed;
    r.errors.push_back(what + ": error " + std::to_string(ratio) +
                       " x fft_error_bound");
  }
}

void set(MetricMap& m, const std::string& name, double value,
         const char* unit) {
  m[name] = Metric{value, unit};
}

/// The kernel-engine, PCIe and engine-occupancy layer metrics over the
/// launches and transfers `devs` recorded since their last clock reset.
/// `useful_bytes` is the DRAM traffic a perfect plan would need (0 where
/// the executor does not report it).
void device_layer(const std::vector<sim::Device*>& devs, double useful_bytes,
                  MetricMap& m) {
  double launches = 0.0, busy = 0.0, dram = 0.0, mem_bound = 0.0;
  double coalesced = 0.0, occupancy = 0.0, h2d = 0.0, d2h = 0.0;
  double pcie_ms = 0.0, compute_occ = 0.0, dma_occ = 0.0, copy_gbs = 0.0;
  for (sim::Device* dev : devs) {
    double dev_busy = 0.0;
    for (const auto& l : dev->history()) {
      launches += 1.0;
      dev_busy += l.total_ms;
      dram += static_cast<double>(l.dram_bytes);
      if (l.memory_bound()) mem_bound += l.total_ms;
      coalesced += l.coalesced_fraction * static_cast<double>(l.dram_bytes);
      occupancy += l.occupancy.occupancy * l.total_ms;
    }
    busy += dev_busy;
    h2d += static_cast<double>(dev->h2d_bytes());
    d2h += static_cast<double>(dev->d2h_bytes());
    const double copy_ms = dev->h2d_ms() + dev->d2h_ms();
    pcie_ms += copy_ms;
    const double span = dev->elapsed_ms();
    if (span > 0.0) {
      compute_occ = std::max(compute_occ, dev_busy / span);
      dma_occ = std::max(dma_occ, copy_ms / (span * dev->spec().dma_engines));
    }
    copy_gbs = std::max(copy_gbs, dev->spec().peak_bandwidth_gbs() *
                                      dev->spec().dram.peak_efficiency);
  }
  set(m, "sim.launches", launches, "count");
  set(m, "sim.kernel.busy_ms", busy, "sim_ms");
  set(m, "sim.kernel.dram_mb", dram / kMB, "MB");
  set(m, "sim.kernel.dram_amp", useful_bytes > 0.0 ? dram / useful_bytes : 0.0,
      "ratio");
  set(m, "sim.kernel.coalesced_frac", dram > 0.0 ? coalesced / dram : 0.0,
      "frac");
  set(m, "sim.kernel.occupancy", busy > 0.0 ? occupancy / busy : 0.0, "frac");
  set(m, "sim.kernel.mem_bound_frac", busy > 0.0 ? mem_bound / busy : 0.0,
      "frac");
  // Achieved DRAM GB/s over kernel time against the single-stream copy
  // bandwidth (the paper's ceiling, section 2.1).
  const double achieved_gbs = busy > 0.0 ? dram / (busy * 1e6) : 0.0;
  set(m, "sim.kernel.pct_copy_bw",
      copy_gbs > 0.0 ? 100.0 * achieved_gbs / copy_gbs : 0.0, "%");
  set(m, "sim.pcie.h2d_mb", h2d / kMB, "MB");
  set(m, "sim.pcie.d2h_mb", d2h / kMB, "MB");
  set(m, "sim.pcie.busy_ms", pcie_ms, "sim_ms");
  set(m, "sim.engine.compute_occupancy", compute_occ, "frac");
  set(m, "sim.engine.dma_occupancy", dma_occ, "frac");
}

/// Plan-registry and resource-cache counters: the group registry (if
/// any) plus every member's own registry and cache.
void registry_layer(const std::vector<sim::Device*>& devs,
                    sim::DeviceGroup* group, MetricMap& m) {
  double hits = 0.0, misses = 0.0, tables = 0.0, workspace = 0.0;
  auto add = [&](const gpufft::PlanRegistry& reg) {
    hits += static_cast<double>(reg.hits());
    misses += static_cast<double>(reg.misses());
  };
  if (group != nullptr) add(gpufft::PlanRegistry::of(*group));
  for (sim::Device* dev : devs) {
    add(gpufft::PlanRegistry::of(*dev));
    const auto& cache = gpufft::ResourceCache::of(*dev);
    tables += static_cast<double>(cache.twiddle_tables());
    workspace += static_cast<double>(cache.workspace_pool_bytes());
  }
  set(m, "gpufft.registry.hits", hits, "count");
  set(m, "gpufft.registry.misses", misses, "count");
  set(m, "gpufft.registry.hit_ratio",
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "frac");
  set(m, "gpufft.cache.twiddle_tables", tables, "count");
  set(m, "gpufft.cache.workspace_mb", workspace / kMB, "MB");
}

/// End-to-end simulated metrics shared by every workload.
void sim_end_to_end(MetricMap& m, double gflops, double makespan_ms,
                    double volumes_per_s, const std::vector<double>& latency,
                    std::size_t peak_bytes) {
  set(m, "sim_gflops", gflops, "GFLOPS");
  set(m, "sim_makespan_ms", makespan_ms, "sim_ms");
  set(m, "sim_volumes_per_s", volumes_per_s, "1/sim_s");
  set(m, "sim_p50_ms", percentile(latency, 0.5), "sim_ms");
  set(m, "sim_p90_ms", percentile(latency, 0.9), "sim_ms");
  set(m, "sim_peak_device_mb", static_cast<double>(peak_bytes) / kMB, "MB");
}

std::vector<sim::Device*> members(sim::DeviceGroup& g) {
  std::vector<sim::Device*> out;
  for (std::size_t i = 0; i < g.size(); ++i) out.push_back(&g.device(i));
  return out;
}

/// Host reference of a complex cube transform (timed as the fft layer).
std::vector<cxf> host_reference(std::vector<cxf> data, Shape3 shape,
                                Direction dir) {
  const Span s("fft.reference");
  fft::Plan3D<float>(shape, dir).execute(data);
  return data;
}

// ---------------------------------------------------------------------------
// paper256: the paper's headline, one 8800 GTX, tuned five-step plans.

class Paper256 final : public Workload {
 public:
  explicit Paper256(const Options& o)
      : shape_(cube(o.smoke ? 64 : 256)), seed_(o.seed) {}

  void setup() override {
    release();
    {
      const Span s("sim.device_create");
      dev_ = std::make_unique<sim::Device>(sim::geforce_8800_gtx());
    }
    {
      // Volume first, plans second: the order bench_steps and quickstart
      // use, so the DRAM model sees EXPERIMENTS.md's address layout.
      const Span s("sim.alloc");
      buf_.emplace(dev_->alloc<cxf>(shape_.volume()));
    }
    auto& reg = gpufft::PlanRegistry::of(*dev_);
    for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
      const auto desc = PlanDesc::bandwidth3d(shape_, dir);
      {
        const Span s("gpufft.planner.tune");
        (void)reg.tuned_config(desc);
      }
      const Span s("gpufft.registry.create");
      auto plan = reg.get_or_create_tuned(desc);
      if (dir == Direction::Forward) {
        fwd_ = std::move(plan);
        // Warm the workspace arena as a first forward execute would, so
        // the device address layout (volume, forward twiddles, workspace)
        // is the one EXPERIMENTS.md's Figure 1 and Table 7 were measured
        // on; the DRAM model's timing depends on addresses.
        const Span w("gpufft.cache.warm");
        (void)gpufft::ResourceCache::of(*dev_).lease<float>(shape_.volume());
      } else {
        inv_ = std::move(plan);
      }
    }
  }

  void prepare() override {
    input_ = random_complex<float>(shape_.volume(), seed_);
    ref_fwd_ = host_reference(input_, shape_, Direction::Forward);
    ref_inv_ = host_reference(ref_fwd_, shape_, Direction::Inverse);
    out_.resize(shape_.volume());
  }

  RoundResult run_round() override {
    RoundResult r;
    PhaseClock clock;
    dev_->reset_clock();
    {
      const Span s("sim.h2d");
      dev_->h2d(*buf_, std::span<const cxf>(input_));
    }
    std::vector<gpufft::StepTiming> fwd_steps, inv_steps;
    double fwd_ms = 0.0, inv_ms = 0.0;
    r.attempted = 2;
    try {
      clock.start();
      {
        const Span s("gpufft.execute");
        fwd_steps = fwd_->execute(*buf_);
      }
      clock.stop();
      fwd_ms = fwd_->last_total_ms();
      download();
      check_volume(r, "paper256 forward", out_, ref_fwd_, shape_.volume());
      clock.start();
      {
        const Span s("gpufft.execute");
        inv_steps = inv_->execute(*buf_);
      }
      clock.stop();
      inv_ms = inv_->last_total_ms();
      download();
      check_volume(r, "paper256 inverse", out_, ref_inv_, shape_.volume());
    } catch (const std::exception& e) {
      r.failed = r.attempted;
      r.errors.push_back(std::string("paper256: ") + e.what());
      return r;
    }
    clock.into(r);
    r.volumes = 2;
    r.elements = 2.0 * static_cast<double>(shape_.volume());

    // Figure 1 is the forward transform's GFLOPS; the makespan covers the
    // closed loop's forward + inverse pair.
    sim_end_to_end(r.sim, sim::reported_fft_flops(shape_) / (fwd_ms * 1e6),
                   fwd_ms + inv_ms, 2e3 / (fwd_ms + inv_ms), {fwd_ms, inv_ms},
                   dev_->peak_allocated_bytes());
    // Table 7 rows (forward plan): steps 1-4 are the Z/Y coarse ranks,
    // step 5 the X fine kernel.
    static const char* const kSteps[] = {"z_rank1", "z_rank2", "y_rank1",
                                         "y_rank2", "x_fine"};
    double useful = 0.0;
    for (std::size_t i = 0; i < fwd_steps.size() && i < 5; ++i) {
      const std::string base = std::string("gpufft.step.") + kSteps[i];
      set(r.sim, base + "_ms", fwd_steps[i].ms, "sim_ms");
      set(r.sim, base + "_gbs", fwd_steps[i].gbs, "GB/s");
    }
    for (const auto* steps : {&fwd_steps, &inv_steps}) {
      for (const auto& s : *steps) useful += s.gbs * s.ms * 1e6;
    }
    device_layer({dev_.get()}, useful, r.sim);
    registry_layer({dev_.get()}, nullptr, r.sim);
    set(r.sim, "gpufft.planner.evaluations",
        static_cast<double>(
            gpufft::PlanRegistry::of(*dev_).tune_evaluations()),
        "count");
    return r;
  }

 private:
  void download() {
    const Span s("sim.d2h");
    dev_->d2h(std::span<cxf>(out_), *buf_);
  }

  void release() {
    fwd_.reset();
    inv_.reset();
    buf_.reset();
    dev_.reset();
  }

  Shape3 shape_;
  std::uint64_t seed_;
  std::unique_ptr<sim::Device> dev_;
  std::shared_ptr<gpufft::FftPlan> fwd_, inv_;
  std::optional<sim::DeviceBuffer<cxf>> buf_;
  std::vector<cxf> input_, ref_fwd_, ref_inv_, out_;
};

// ---------------------------------------------------------------------------
// fleet128: four GTX 280s on the PCIe-2.0 tree, one pipelined batch.

class Fleet128 final : public Workload {
 public:
  explicit Fleet128(const Options& o)
      : n_(o.smoke ? 32 : 128),
        shards_(o.smoke ? 4 : 8),
        batch_(o.smoke ? 2 : 4),
        seed_(o.seed) {}

  void setup() override {
    plan_.reset();
    group_.reset();
    {
      const Span s("sim.group_create");
      group_ = std::make_unique<sim::DeviceGroup>(4, sim::geforce_gtx_280());
    }
    const Span s("gpufft.registry.create");
    auto plan = gpufft::PlanRegistry::of(*group_).get_or_create(
        PlanDesc::sharded3d(n_, shards_, Direction::Forward));
    plan_ = std::dynamic_pointer_cast<gpufft::ShardedFft3DPlan>(plan);
    if (!plan_) {
      throw std::runtime_error("sharded3d did not build a sharded plan");
    }
  }

  void prepare() override {
    const Shape3 shape = cube(n_);
    SplitMix64 rng(seed_);
    // Sharded results are bit-identical to the single-card out-of-core
    // plan with the same decimation (DESIGN.md section 12).
    sim::Device golden_dev(sim::geforce_gtx_280());
    auto ooc = gpufft::PlanRegistry::of(golden_dev).get_or_create(
        PlanDesc::out_of_core(n_, shards_, Direction::Forward));
    for (std::size_t k = 0; k < batch_; ++k) {
      inputs_.push_back(random_complex<float>(shape.volume(), rng.next()));
      refs_.push_back(host_reference(inputs_.back(), shape, Direction::Forward));
      golden_.push_back(inputs_.back());
      const Span s("gpufft.reference_outofcore");
      ooc->execute_host(std::span<cxf>(golden_.back()));
    }
  }

  RoundResult run_round() override {
    RoundResult r;
    PhaseClock clock;
    group_->reset_clocks();
    std::vector<std::vector<cxf>> work = inputs_;
    std::vector<std::span<cxf>> spans(work.begin(), work.end());
    r.attempted = batch_;
    gpufft::ShardedBatchTiming t;
    try {
      clock.start();
      {
        const Span s("gpufft.execute");
        t = plan_->execute_batch(spans, gpufft::BatchMode::Pipelined);
      }
      clock.stop();
    } catch (const std::exception& e) {
      r.failed = r.attempted;
      r.errors.push_back(std::string("fleet128: ") + e.what());
      return r;
    }
    clock.into(r);
    {
      const Span s("bench.check");
      for (std::size_t k = 0; k < batch_; ++k) {
        check_volume(r, "fleet128 volume " + std::to_string(k), work[k],
                     refs_[k], n_ * n_ * n_, golden_[k]);
      }
    }
    r.volumes = batch_;
    r.elements = static_cast<double>(batch_ * n_ * n_ * n_);

    sim_end_to_end(r.sim,
                   static_cast<double>(batch_) *
                       sim::reported_fft_flops(cube(n_)) /
                       (t.makespan_ms * 1e6),
                   t.makespan_ms, t.volumes_per_sec(), t.volume_done_ms,
                   group_->peak_bytes_in_flight());
    auto devs = members(*group_);
    device_layer(devs, 0.0, r.sim);
    registry_layer(devs, group_.get(), r.sim);
    set(r.sim, "gpufft.sharded.exchange_mb",
        static_cast<double>(t.total.exchange_bytes()) / kMB, "MB");
    set(r.sim, "gpufft.sharded.exchange_frac", t.total.exchange_fraction(),
        "frac");
    set(r.sim, "gpufft.sharded.exchange_occupancy", t.exchange_occupancy(),
        "frac");
    set(r.sim, "gpufft.sharded.compute_occupancy", t.compute_occupancy(),
        "frac");
    set(r.sim, "gpufft.sharded.barrier_ms", t.total.barrier_ms, "sim_ms");
    set(r.sim, "gpufft.sharded.host_staging_mb",
        static_cast<double>(group_->peak_host_staging_bytes()) / kMB, "MB");
    set(r.sim, "topology.bisection_gbs", group_->topo().bisection_gbs(),
        "GB/s");
    return r;
  }

  [[nodiscard]] int setup_repeats() const override { return 5; }

 private:
  std::size_t n_, shards_, batch_;
  std::uint64_t seed_;
  std::unique_ptr<sim::DeviceGroup> group_;
  std::shared_ptr<gpufft::ShardedFft3DPlan> plan_;
  std::vector<std::vector<cxf>> inputs_, refs_, golden_;
};

// ---------------------------------------------------------------------------
// service_mix: FftService over a 4 x 8800 GTS peer mesh, open loop in
// simulated time.

class ServiceMix final : public Workload {
 public:
  explicit ServiceMix(const Options& o)
      : seed_(o.seed),
        copies_(o.smoke ? 3 : 17),
        mean_gap_ms_(o.saturate ? 0.0 : kServiceMeanGapMs) {
    if (o.smoke) {
      menu_ = {PlanDesc::sharded3d(32, 4, Direction::Forward),
               PlanDesc::sharded_real3d(32, 4, Direction::Forward),
               PlanDesc::out_of_core(32, 4, Direction::Inverse),
               PlanDesc::sharded3d(48, 4, Direction::Forward)};
    } else {
      menu_ = {PlanDesc::sharded3d(64, 8, Direction::Forward),
               PlanDesc::sharded_real3d(64, 8, Direction::Forward),
               PlanDesc::out_of_core(64, 8, Direction::Inverse),
               PlanDesc::sharded3d(48, 4, Direction::Forward),
               PlanDesc::out_of_core(40, 4, Direction::Forward),
               PlanDesc::sharded3d(32, 4, Direction::Inverse)};
    }
  }

  void setup() override {
    service_.reset();
    group_.reset();
    {
      const Span s("sim.group_create");
      group_ = std::make_unique<sim::DeviceGroup>(
          4, sim::geforce_8800_gts(),
          std::make_shared<sim::PeerMeshTopology>(4));
    }
    const Span s("serve.service_create");
    serve::ServiceConfig cfg;
    // The default depth of 64 would reject part of an upfront submit.
    cfg.max_queue_depth = copies_ * menu_.size();
    service_ = std::make_unique<serve::FftService>(*group_, cfg);
  }

  void prepare() override {
    // The request schedule is one fixed draw: every menu entry the same
    // number of times in random order, arriving as a Poisson process
    // conditioned on the request count (sorted uniform instants over
    // requests x mean gap). At 70% load the order of arrivals alone moves
    // p90 latency by a third between draws, so the schedule comes from
    // kScheduleSeed and --seed drives the volumes' data.
    SplitMix64 sched(kScheduleSeed);
    std::vector<std::size_t> deck;
    for (std::size_t c = 0; c < copies_; ++c) {
      for (std::size_t e = 0; e < menu_.size(); ++e) deck.push_back(e);
    }
    for (std::size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[sched.below(i)]);
    }
    std::vector<double> arrivals(deck.size());
    for (auto& a : arrivals) {
      a = mean_gap_ms_ * static_cast<double>(deck.size()) * sched.uniform();
    }
    std::sort(arrivals.begin(), arrivals.end());
    SplitMix64 data(seed_);
    for (std::size_t i = 0; i < deck.size(); ++i) {
      Req q;
      q.desc = menu_[deck[i]];
      q.arrival_ms = arrivals[i];
      q.data_seed = data.next();
      reqs_.push_back(q);
    }
    // Complex requests must match the single-card out-of-core plan bit
    // for bit (sharded == dealt == out-of-core, DESIGN.md section 15);
    // every request must match the host library within fft_error_bound.
    sim::Device golden_dev(sim::geforce_8800_gts());
    auto& golden_reg = gpufft::PlanRegistry::of(golden_dev);
    for (auto& q : reqs_) {
      const Shape3 shape = q.desc.shape;
      if (is_real(q)) {
        const auto reals = real_input(q);
        fft::PlanR2C3D<float> host(shape);
        q.ref.resize(host.spectrum_elems());
        const Span s("fft.reference");
        host.execute(std::span<const float>(reals), std::span<cxf>(q.ref));
        continue;
      }
      const auto input = make_input(q);
      q.ref = host_reference(input, shape, q.desc.dir);
      q.golden = input;
      const Span s("gpufft.reference_outofcore");
      golden_reg
          .get_or_create(PlanDesc::out_of_core(shape.nx, q.desc.splits,
                                               q.desc.dir))
          ->execute_host(std::span<cxf>(q.golden));
    }
  }

  RoundResult run_round() override {
    RoundResult r;
    std::vector<std::vector<cxf>> data;
    data.reserve(reqs_.size());
    for (const auto& q : reqs_) data.push_back(make_input(q));

    PhaseClock clock;
    std::size_t rejected = 0;
    serve::ServiceReport rep;
    r.attempted = reqs_.size();
    try {
      clock.start();
      for (std::size_t i = 0; i < reqs_.size(); ++i) {
        serve::FftRequest req;
        req.id = i;
        req.desc = reqs_[i].desc;
        req.data = std::span<cxf>(data[i]);
        req.arrival_ms = reqs_[i].arrival_ms;
        const Span s("serve.submit");
        if (service_->submit(req) != serve::Admission::Accepted) ++rejected;
      }
      {
        const Span s("serve.run");
        rep = service_->run();
      }
      clock.stop();
    } catch (const std::exception& e) {
      r.failed = r.attempted;
      r.errors.push_back(std::string("service_mix: ") + e.what());
      return r;
    }
    clock.into(r);

    std::vector<bool> done(reqs_.size(), false);
    std::vector<double> latency;
    double flops = 0.0, shard = 0.0;
    {
      const Span s("bench.check");
      for (const auto& c : rep.completions) {
        const auto& q = reqs_[c.id];
        done[c.id] = true;
        latency.push_back(c.latency_ms);
        flops += sim::reported_fft_flops(q.desc.shape);
        r.elements += static_cast<double>(q.desc.buffer_elements());
        if (c.strategy == gpufft::BatchStrategy::Shard) shard += 1.0;
        check_volume(r,
                     "request " + std::to_string(c.id) + " " +
                         q.desc.to_string(),
                     data[c.id], q.ref, q.desc.shape.volume(), q.golden);
      }
    }
    r.volumes = rep.completions.size();
    r.failed += rejected + rep.failures.size();
    for (const auto& f : rep.failures) {
      r.errors.push_back("request " + std::to_string(f.id) + ": " + f.error);
    }
    const std::size_t finished = rep.completions.size() + rep.failures.size();
    if (finished + rejected < reqs_.size()) {
      r.failed += reqs_.size() - finished - rejected;
      r.errors.push_back("service dropped admitted requests");
    }

    sim_end_to_end(r.sim, flops / (rep.makespan_ms * 1e6), rep.makespan_ms, rep.volumes_per_sec,
                   latency, group_->peak_bytes_in_flight());
    auto devs = members(*group_);
    device_layer(devs, 0.0, r.sim);
    registry_layer(devs, group_.get(), r.sim);
    set(r.sim, "gpufft.sharded.host_staging_mb",
        static_cast<double>(group_->peak_host_staging_bytes()) / kMB, "MB");
    set(r.sim, "topology.bisection_gbs", rep.bisection_gbs, "GB/s");
    set(r.sim, "serve.shard_frac",
        r.volumes > 0 ? shard / static_cast<double>(r.volumes) : 0.0, "frac");
    set(r.sim, "serve.rejected", static_cast<double>(rejected), "count");
    set(r.sim, "serve.failures", static_cast<double>(rep.failures.size()),
        "count");
    set(r.sim, "serve.failovers",
        static_cast<double>(rep.device_lost_failovers), "count");
    set(r.sim, "serve.verify_failures",
        static_cast<double>(rep.verify_failures), "count");
    set(r.sim, "serve.offered_per_s",
        mean_gap_ms_ > 0.0 ? 1e3 / mean_gap_ms_ : 0.0, "1/sim_s");
    return r;
  }

  [[nodiscard]] bool fresh_setup_per_round() const override { return true; }
  [[nodiscard]] int setup_repeats() const override { return 5; }

 private:
  struct Req {
    PlanDesc desc;
    double arrival_ms = 0.0;
    std::uint64_t data_seed = 0;
    std::vector<cxf> ref;     ///< host-library result
    std::vector<cxf> golden;  ///< out-of-core result (complex kinds only)
  };

  static bool is_real(const Req& q) {
    return q.desc.layout == gpufft::Layout::RealHalfSpectrum;
  }

  static std::vector<float> real_input(const Req& q) {
    SplitMix64 rng(q.data_seed);
    std::vector<float> v(q.desc.shape.volume());
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
  }

  /// The volume a client submits: random complex data, or a random real
  /// volume packed into the split half-spectrum layout.
  static std::vector<cxf> make_input(const Req& q) {
    if (is_real(q)) {
      const auto reals = real_input(q);
      return gpufft::pack_real_volume<float>(reals, q.desc.shape);
    }
    return random_complex<float>(q.desc.buffer_elements(), q.data_seed);
  }

  std::uint64_t seed_;
  std::size_t copies_;  ///< requests per menu entry
  double mean_gap_ms_;
  std::vector<PlanDesc> menu_;
  std::vector<Req> reqs_;
  std::unique_ptr<sim::DeviceGroup> group_;
  std::unique_ptr<serve::FftService> service_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "paper256") return std::make_unique<Paper256>(opts);
  if (opts.workload == "fleet128") return std::make_unique<Fleet128>(opts);
  if (opts.workload == "service_mix") return std::make_unique<ServiceMix>(opts);
  return nullptr;
}

}  // namespace perfbench
