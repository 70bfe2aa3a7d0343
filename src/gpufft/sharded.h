// Multi-device 3-D FFT: the Section 3.3 Z-decimation sharded across a
// sim::DeviceGroup.
//
// The out-of-core algorithm already splits an n^3 volume into `splits`
// interleaved Z slabs that stream over PCIe — "one card, eight slabs"
// generalizes directly to "N cards, splits/N slabs each". Device d runs
// phase 1 (full X/Y FFT + partial-Z + inter-rank twiddle) for the residues
// congruent to d mod N, then the volume is re-bucketed across cards for
// phase 2's splits-point Z FFTs, device e taking a contiguous block of
// plane groups:
//
//   Phase 1 (device d = I mod N, residue I):   as out-of-core steps 1A-1D
//   all-to-all exchange:                        host-staged (see below)
//   Phase 2 (device e, groups k' in e's block): as out-of-core steps 2A-2C
//
// Every phase-2 group gathers one plane from each phase-1 residue, i.e.
// from every card — an all-to-all. How that all-to-all moves depends on
// the group's interconnect (sim/topology/):
//
//   * PCIe tree (the default; G8x cards had no peer path, as in 2008):
//     host-staged — phase 1's downloads land in one host work volume and
//     phase 2's uploads read it back, each leg costed through the owning
//     card's (bridge-derated) PCIe model. No extra copies beyond what
//     out-of-core already does: the exchange IS the d2h1/h2d2 traffic.
//   * Peer fabrics (mesh, torus): direct — each residue's planes leave
//     the producer over DeviceGroup::d2d_async in ring order (member
//     mi sends to mi, mi+1, ... mod N), landing in a per-member receive
//     buffer; on the torus each transfer store-and-forwards along its
//     dimension-ordered route, occupying every intermediate hop's DMA
//     engines and the per-link FIFOs. Phase 2 then works out of the
//     receive buffer (see below) — no host staging, no global barrier;
//     each member starts when its own receives (tracked by a per-member
//     Event) and its own phase-1 tails are done.
//
// On peer fabrics the plan also supports a *pencil* decomposition
// (Decomposition::Pencil): each member owns one (plane-group, Y-block)
// unit, so N can grow to local_nz * (n / ny) instead of saturating at
// min(shards, local_nz). The slab-vs-pencil choice is made by the
// planner (choose_decomposition, planner.h) from topology_model_ms,
// which is keyed on the topology's bisection_gbs(). Both decompositions
// are bit-identical to the host reference: the phase-2 pencil kernel is
// independent per (x, y) pencil, so splitting its slab along Y changes
// nothing functionally.
//
// One executor (ShardedExecutor) runs this schedule for complex and
// split-real volumes alike: a PlaneLayout lists the contiguous regions a
// Z-plane occupies ({n x n} complex, {(n/2) x n, 1 x n} split
// half-spectrum), and every phase loops over those regions. On peer
// layouts phase 2 runs in place on the receive buffer when a plane group
// is contiguous there (one region) and otherwise first gathers the
// group's regions into a slab with one local d2d leg per region. The two
// plans differ only in their layout, their per-member resources, their
// phase-1 slab transform and the real inverse's c2r epilogue.
//
// Per device the schedule is exactly the out-of-core one: two slab leases,
// two streams, residues (and phase-2 groups) alternating between them, so
// each card overlaps its own transfers and compute as its DMA engines
// allow. The phase boundary is a group-wide fence at the maximum of all
// stream tails (Stream::wait_until_ms; the members share one time
// origin). A group of one therefore reproduces the single-device
// OutOfCoreFft3D timeline *exactly* — the degenerate path is pinned by
// test, and decimation arithmetic depends only on `shards`, so results are
// bit-identical across any device count and any spec mix.
//
// Losing a card mid-run (sim/fault.h DeviceLost) is survivable: execute()
// and the dealt batch share one retry (retry_past_lost_cards), which
// restores the input from a snapshot (taken only while faults are armed),
// and the rerun re-shards over the survivors — falling back to fewer cards
// (ultimately one, the out-of-core schedule) when the survivor count stops
// dividing the phase extents. Results stay bit-identical because
// decimation arithmetic depends only on `shards`, never on the member
// count. The pipelined batch instead restarts the phase a loss broke.
//
// probe_shard_phases/sharded_model_ms give a closed-form model of this
// schedule: serial chains on 1-DMA cards, depth-2 double-buffered rates on
// 2-DMA cards. It prices the deal side of the deal-vs-shard verdicts
// (batch_sharded.h); bench_sharded and the tests hold it to the
// scheduler's makespan (0.1% on 1-DMA cards, 5% on 2-DMA cards).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gpufft/fft_plan.h"
#include "gpufft/outofcore.h"
#include "gpufft/types.h"
#include "sim/device_group.h"

namespace repro::gpufft {

/// Run `attempt` (which picks its members afresh) over `data` while a
/// member is schedulable: on a DeviceLostError, charge the failover to the
/// card it names, restore `data` and rerun. Only an armed injector can
/// stop a run halfway, so `data` is snapshot (and the loss survived) only
/// while faults are armed.
template <typename Attempt>
auto retry_past_lost_cards(sim::DeviceGroup& group, std::span<cxf> data,
                           Attempt&& attempt) {
  REPRO_CHECK_MSG(!group.schedulable_members().empty(),
                  "every device in the group has been lost");
  std::vector<cxf> snapshot;
  if (group.any_faults_armed()) snapshot.assign(data.begin(), data.end());
  for (;;) {
    try {
      return attempt();
    } catch (const sim::DeviceLostError& e) {
      if (snapshot.empty() || group.schedulable_members().empty()) throw;
      ++group.device(e.device()).health().device_lost_failovers;
      std::copy(snapshot.begin(), snapshot.end(), data.begin());
    }
  }
}

/// How the Z-decimated volume is split across members for phase 2.
enum class Decomposition {
  /// Each member owns a contiguous block of whole plane groups (the PR 3
  /// scheme). Member count saturates at min(shards, n/shards).
  Slab,
  /// Each member owns one (plane group, Y block) unit: nm = local_nz *
  /// y_blocks members, each running the phase-2 pencil FFT over an
  /// (n, n/y_blocks, shards) sub-slab. Peer fabrics only — the finer
  /// units would multiply host-staged traffic, but direct legs pay only
  /// wire time. Scales to N = 64 and beyond.
  Pencil,
};

/// How the all-to-all between the phases physically moves.
enum class Exchange {
  HostStaged,  ///< through the host work volume (the only tree option)
  Peer,        ///< DeviceGroup::d2d_async legs over the fabric
};

/// The geometry one sharded run actually uses: resolved from the
/// topology, the preferred decomposition, and the alive member set.
struct ShardLayout {
  Decomposition decomp{Decomposition::Slab};
  Exchange exchange{Exchange::HostStaged};
  std::size_t members{1};         ///< phase-2 workers (prefix of alive)
  std::size_t phase1_members{1};  ///< phase-1 residue owners
  std::size_t y_blocks{1};        ///< pencil: Y splits per plane group
};

/// Resolve the layout `devices` cards would use on `topo` (all assumed
/// alive) for the preferred decomposition; falls back to Slab (and to
/// HostStaged) when the preference is infeasible. The plans apply the
/// same rules against the live group, so this is also the model's
/// geometry oracle.
ShardLayout shard_layout(const sim::Topology& topo, std::size_t n,
                         std::size_t shards, std::size_t devices,
                         Decomposition preferred);

/// Where one Z-plane of an n^3 volume lives: the contiguous regions it
/// occupies, each `rows` (= n) rows of widths[r] elements. A complex
/// volume has one region, n x n; the split half-spectrum (real3d.h) has
/// two, the (n/2) x n main block and the 1 x n Nyquist tail row. Every
/// buffer of D planes — the host volume (D = n), a staged slab, a receive
/// buffer — stores them region-major: region r starts at D times the
/// plane elements of regions 0..r-1, its plane j elems(r) * j further on
/// (offset(r, D, j)). The host tail region thus starts at (n/2)*n*n.
struct PlaneLayout {
  std::size_t rows{};               ///< Y rows of every region
  std::vector<std::size_t> widths;  ///< elements per row of each region

  /// The plane layout of a cube of side n stored as `layout`.
  [[nodiscard]] static PlaneLayout of(Layout layout, std::size_t n) {
    if (layout == Layout::RealHalfSpectrum) return {n, {n / 2, 1}};
    return {n, {n}};
  }
  [[nodiscard]] std::size_t regions() const { return widths.size(); }
  [[nodiscard]] std::size_t elems(std::size_t r) const {
    return rows * widths[r];
  }
  /// Elements of one whole plane.
  [[nodiscard]] std::size_t plane() const {
    std::size_t e = 0;
    for (std::size_t w : widths) e += rows * w;
    return e;
  }
  /// Offset of region r of plane j in a buffer of `depth` region-major
  /// planes.
  [[nodiscard]] std::size_t offset(std::size_t r, std::size_t depth,
                                   std::size_t j = 0) const {
    std::size_t e = 0;
    for (std::size_t i = 0; i < r; ++i) e += elems(i);
    return depth * e + j * elems(r);
  }
  /// The same regions cut to a block of `ny` rows (a pencil unit).
  [[nodiscard]] PlaneLayout y_block(std::size_t ny) const {
    return {ny, widths};
  }
};

/// Group-level timing of one sharded run.
struct ShardedTiming {
  std::vector<ShardTiming> devices;  ///< one entry per group member
  double barrier_ms{};   ///< phase-1 -> phase-2 fence (max stream tail)
  double makespan_ms{};  ///< overlapped wall-clock across the fleet

  /// The buckets summed over the fleet, in ordinal order.
  [[nodiscard]] ShardTiming sum() const {
    ShardTiming s;
    for (const auto& d : devices) s += d;
    return s;
  }

  [[nodiscard]] std::uint64_t exchange_bytes() const {
    return sum().exchange_bytes;
  }
  [[nodiscard]] double max_busy_ms() const {
    double ms = 0.0;
    for (const auto& d : devices) ms = std::max(ms, d.busy_ms());
    return ms;
  }
  /// Fraction of the fleet's busy time spent on the all-to-all legs.
  [[nodiscard]] double exchange_fraction() const {
    double busy = 0.0;
    double exch = 0.0;
    for (const auto& d : devices) {
      busy += d.busy_ms();
      exch += d.exchange_ms();
    }
    return busy > 0.0 ? exch / busy : 0.0;
  }
};

/// How ShardedFft3DPlan::execute_batch schedules consecutive volumes.
enum class BatchMode {
  /// Volume k+1 starts only after volume k fully drains (the PR 3
  /// behavior): a group-wide sync between volumes.
  Serial,
  /// Volume k's host-staged all-to-all and phase 2 overlap volume k+1's
  /// phase-1 Z-decimation: volumes rotate over kPipelineContexts
  /// disjoint stream sets and host staging buffers, so the only
  /// inter-volume fences are the per-slot WAR fences — the
  /// shared-bridge exchange hides under the next volume's compute. The
  /// issue order (how many volumes of phase 1 run ahead of the oldest
  /// pending exchange) is picked per run from the replay model.
  /// Results are bit-identical to Serial (the simulator applies
  /// functional effects in program order; only the timeline changes).
  Pipelined,
};

/// Timing of one batched sharded run.
struct ShardedBatchTiming {
  ShardedTiming total;  ///< per-device buckets summed across volumes
  std::vector<double> volume_done_ms;  ///< completion offsets from batch start
  double makespan_ms{};                ///< batch wall-clock across the fleet

  [[nodiscard]] double volumes_per_sec() const {
    return makespan_ms > 0.0
               ? 1e3 * static_cast<double>(volume_done_ms.size()) /
                     makespan_ms
               : 0.0;
  }
  /// Fraction of (active devices x makespan) the all-to-all legs kept DMA
  /// engines busy. "Active" = devices with nonzero buckets, so a failover
  /// mid-batch does not dilute the figure with lost cards' zero rows.
  [[nodiscard]] double exchange_occupancy() const;
  /// Same denominator, numerator = kernel time (fft1 + twiddle + fft2).
  [[nodiscard]] double compute_occupancy() const;
};
/// Volume contexts the pipelined batch keeps in flight (slab leases,
/// streams, and host staging rotate over this many slots). Two is the
/// minimum for any cross-volume overlap, but the context count also
/// bounds the phase-1 lookahead: with L volumes' phase 1 issued ahead of
/// the oldest pending phase 2, L+1 staging slots are live at once. Four
/// slots let a batch of four issue every phase 1 before the first
/// exchange — on dual-DMA cards that is the order the replay model picks
/// at exchange-heavy sizes, and fewer slots re-serialize the pipe: with
/// two, volume k's phase-1 WAR fence waits for volume k-2's entire
/// phase 2 from the third volume on.
inline constexpr std::size_t kPipelineContexts = 4;

/// Serially-measured durations of the seven per-iteration phases of the
/// sharded schedule, probed on a scratch device (pass the group member's
/// bridge-derated spec). up1/fft1/twiddle/dn1 are per phase-1 residue;
/// up2/fft2/dn2 per phase-2 plane group.
struct ShardPhases {
  double up1_ms{}, fft1_ms{}, twiddle_ms{}, dn1_ms{};
  double up2_ms{}, fft2_ms{}, dn2_ms{};
};

/// The Z-decimated schedule over a device group, for the plane layout the
/// PlanDesc's Layout picks (see the file comment). `shards` is the
/// Z-decimation factor S (the out-of-core `splits`, decoupled from the
/// device count so results are bit-identical for every N); each device
/// owns S/N residues in phase 1 and a contiguous (n/S)/N block of plane
/// groups in phase 2. A group whose size divides neither S nor n/S runs
/// on its largest member prefix that divides both, as after losing a
/// card. As an FftPlan it supports the host entry points only.
class ShardedExecutor : public FftPlanT<float> {
 public:
  /// Transform a host-resident volume (buffer_elements() elements in the
  /// plan's layout) in place.
  ShardedTiming execute(std::span<cxf> host_data);
  /// Re-expose the device-resident entry point the span overload hides.
  using FftPlanT<float>::execute;

  /// Unsupported: the volume is distributed, never on one card.
  std::vector<StepTiming> execute_impl(DeviceBuffer<cxf>& data) override;

  /// The FftPlan host entry point (Table 12 rows summed across devices).
  /// last_total_ms() afterwards reports the fleet makespan.
  std::vector<StepTiming> execute_host(std::span<cxf> data) override;

  /// Volumes back-to-back through execute_host (the base-class batch
  /// would route through the unsupported device-buffer execute()): rows
  /// summed across volumes, last_total_ms() the span on the fleet clock.
  std::vector<StepTiming> execute_batch_host(
      std::span<const std::span<cxf>> volumes) override;

  /// Geometry the last execute()/execute_host() actually ran with.
  [[nodiscard]] const ShardLayout& last_layout() const {
    return last_layout_;
  }

  /// Breakdown of the last execute()/execute_host().
  [[nodiscard]] const ShardedTiming& last_timing() const {
    return last_timing_;
  }

 protected:
  /// `desc` carries n, the checked decimation S and the layout.
  ShardedExecutor(sim::DeviceGroup& group, const PlanDesc& desc,
                  TuneConfig tune);

  /// One registry plan of `slab` (slab_plan_desc) per member, in ordinal
  /// order; a member already lost to a fault gets none (building one
  /// would throw), and the schedule never assigns it work.
  void acquire_slab_plans(const PlanDesc& slab);

  /// Phase 1's in-slab transform of one residue on member `d`: full X and
  /// Y plus the partial Z over the slab's n/S planes, adding each kernel's
  /// time to `ms` in launch order. The default runs the member's slab
  /// plan.
  virtual void phase1_transform(std::size_t d, DeviceBuffer<cxf>& slab,
                                sim::Stream& s, double& ms);

  /// Phase 2's tail after the pencil FFTs of one plane group on member
  /// `e`, adding its kernel time to `ms`. `group` holds the group's S
  /// planes region-major from element 0 whenever the layout has more than
  /// one region (a staged or gathered slab). The default does nothing.
  virtual void phase2_epilogue(std::size_t e, DeviceBuffer<cxf>& group,
                               sim::Stream& s, double& ms);

  /// The per-run execution context: one pair of slab leases + streams per
  /// member. The pipelined batch keeps kPipelineContexts of these alive
  /// so consecutive volumes overlap without the WAR reuse fence binding;
  /// the single-volume path owns exactly one.
  struct VolumeCtx;

  [[nodiscard]] std::unique_ptr<VolumeCtx> make_ctx(
      const std::vector<std::size_t>& members, const ShardLayout& layout);

  /// The two halves of one volume, split so the pipelined batch can issue
  /// volume k+1's phase 1 *before* volume k's phase 2: the engine FIFOs
  /// dispatch in submission order, so whole-volume issue order would
  /// head-of-line block the next volume's uploads behind this volume's
  /// barrier-gated exchange. Phase 1 only reads `host_data` and writes
  /// `host_work`; phase 2 (which opens with the exchange fence) reads
  /// `host_work` and overwrites `host_data`. Buckets accumulate into
  /// `timing` (indexed by group ordinal); `vol_start_ms` anchors the
  /// barrier bookkeeping.
  void enqueue_phase1(VolumeCtx& ctx, std::span<cxf> host_data,
                      std::span<cxf> host_work, ShardedTiming& timing);
  void enqueue_phase2(VolumeCtx& ctx, std::span<cxf> host_data,
                      std::span<cxf> host_work, double vol_start_ms,
                      ShardedTiming& timing);

  /// One full run over the device subset `members` (indices into the
  /// group) with the resolved `layout`: one attempt of execute()'s
  /// lost-card retry.
  ShardedTiming run_on(const std::vector<std::size_t>& members,
                       const ShardLayout& layout, std::span<cxf> host_data);

  sim::DeviceGroup* group_;
  std::size_t n_;
  std::size_t shards_;
  PlaneLayout planes_;
  Shape3 slab_shape_;  ///< logical phase-1 slab (n, n, n/S)
  /// The decomposition the next run prefers (Slab unless a plan picks).
  Decomposition decomp_{Decomposition::Slab};
  ShardLayout last_layout_{};
  std::vector<std::shared_ptr<FftPlan>> slab_plans_;  ///< one per device
  std::vector<cxf> host_work_;
  sim::DeviceGroup::HostStagingLease staging_lease_;
  ShardedTiming last_timing_{};
};

/// Complex cubes through the sharded Z-decimated schedule, with the
/// pipelined multi-volume batch and the slab-vs-pencil choice on peer
/// fabrics. Obtain through a group-attached PlanRegistry:
///
///   sim::DeviceGroup group(4, sim::geforce_8800_gts());
///   auto plan = gpufft::PlanRegistry::of(group).get_or_create(
///       gpufft::PlanDesc::sharded3d(256, 8, gpufft::Direction::Forward));
///   plan->execute_host(volume);
class ShardedFft3DPlan final : public ShardedExecutor {
 public:
  /// Requires S | n with S a power-of-two small-FFT factor (checked_
  /// decimation); any group size works (see ShardedExecutor). A non-zero
  /// tune.slab_depth overrides `shards` (the TuneConfig knob).
  ShardedFft3DPlan(sim::DeviceGroup& group, std::size_t n,
                   std::size_t shards, Direction dir, TuneConfig tune = {});

  /// Many volumes through the fleet. Pipelined (the default) overlaps
  /// volume k's exchange + phase 2 with volume k+1's phase 1; Serial is
  /// the back-to-back schedule (the bit-identity reference, and the path
  /// verified batches take). Both are bit-identical. Survives DeviceLost
  /// mid-batch: completed volumes keep their results, the failing volume
  /// restores from its snapshot and re-shards over the survivors, and the
  /// rest of the batch continues on the reduced fleet.
  ShardedBatchTiming execute_batch(std::span<const std::span<cxf>> volumes,
                                   BatchMode mode = BatchMode::Pipelined);

  /// FftPlan batch entry point: runs the Pipelined schedule; the rows are
  /// duration sums across volumes and last_total_ms() is the overlapped
  /// batch makespan.
  std::vector<StepTiming> execute_batch_host(
      std::span<const std::span<cxf>> volumes) override;

  /// The decomposition the next run will prefer. The constructor seeds
  /// it from choose_decomposition (planner.h) on peer-capable groups;
  /// tests use the setter to pin one.
  [[nodiscard]] Decomposition decomposition() const { return decomp_; }
  void set_decomposition(Decomposition d) { decomp_ = d; }

 private:
  /// Extra staging volumes for the pipelined batch (slots 1..N-1 of the
  /// kPipelineContexts rotation; slot 0 is host_work_), so a volume's
  /// phase-1 downloads never land in a buffer an earlier volume's phase
  /// 2 is still reading. Allocated lazily on the first batch.
  std::array<std::vector<cxf>, kPipelineContexts - 1> host_work_extra_;
  std::array<sim::DeviceGroup::HostStagingLease, kPipelineContexts - 1>
      staging_lease_extra_;
  /// Phase durations probed once on the first pipelined batch (member
  /// 0's spec) to pick the issue order from the replay model.
  std::optional<ShardPhases> probe_phases_;
};

/// Sharded r2c/c2r cube over the split half-spectrum layout (real3d.h):
/// every staged plane is (n/2+1)*n complex elements (an (n/2)*n main span
/// plus its n-element Nyquist tail row), so the all-to-all moves
/// (n/2+1)/n (~half) of the complex exchange bytes — directly attacking
/// the bridge bound that is ~40% of the complex makespan.
///
/// Forward phase 1 runs the registry-obtained real slab plan (fused r2c
/// X fine + coarse Y/local-Z ranks) per residue; phase 2 is the usual
/// pencil Z FFT over both layout regions. The inverse cannot run its c2r
/// fine pass in phase 1 (the Z axis is still decimated), so phase 1 runs
/// only the coarse Y/local-Z ranks (run_real_coarse_slab) and phase 2
/// finishes pencil Z + the fused c2r kernel, which folds the full
/// normalization — a true inverse, like RealFft3DT. The plan always runs
/// the slab decomposition, and its batch runs volumes back to back.
class ShardedRealFft3DPlan final : public ShardedExecutor {
 public:
  /// The decimation rules of ShardedFft3DPlan (any group size works),
  /// plus the real X-fine constraint: n a power of two >= 32.
  ShardedRealFft3DPlan(sim::DeviceGroup& group, std::size_t n,
                       std::size_t shards, Direction dir,
                       TuneConfig tune = {});

 private:
  void phase1_transform(std::size_t d, DeviceBuffer<cxf>& slab,
                        sim::Stream& s, double& ms) override;
  void phase2_epilogue(std::size_t e, DeviceBuffer<cxf>& group,
                       sim::Stream& s, double& ms) override;

  /// Inverse only: per-device c2r twiddle tables (n/2 stages, n pack).
  std::vector<std::shared_ptr<const DeviceBuffer<cxf>>> tw_half_;
  std::vector<std::shared_ptr<const DeviceBuffer<cxf>>> tw_full_;
};

/// The seven phase durations of the sharded schedule for (n, shards) on
/// `spec`, each measured serially on a scratch device. Frozen with the
/// closed-form models below that read it: their verdicts sit on last-ulp
/// differences between sums of these values and pinned timelines depend
/// on which way each falls, so even a change in how a duration is summed
/// needs a re-pin (DESIGN §12).
ShardPhases probe_shard_phases(const sim::GpuSpec& spec, std::size_t n,
                               std::size_t shards, Direction dir);

/// Closed-form makespan of the sharded schedule on a homogeneous group of
/// `devices` cards with phase durations `p`: per device, shards/devices
/// residue chains then (n/shards)/devices group chains. On a 1-DMA card
/// the engine FIFOs serialize each chain exactly (the next residue's
/// upload queues behind this residue's download on the single copy
/// engine); a 2-DMA card pipelines at the depth-2 double-buffered rate
/// max(up, compute, down, chain/2). Cross-checked against the scheduler
/// by bench_sharded (<= 5%). Frozen: it prices the deal side of every
/// host-staged deal-vs-shard verdict, 17 of tier-1's 66 tree verdicts are
/// decided at the last ulp, and pricing it with the scheduler replay
/// flips some of them and with them the chaos soak's pinned schedule.
double sharded_model_ms(const ShardPhases& p, const sim::GpuSpec& spec,
                        std::size_t n, std::size_t shards,
                        std::size_t devices);

/// Closed-form makespan of `batch` volumes through the pipelined sharded
/// schedule on a homogeneous group: every candidate issue order (phase-1
/// lookahead 0 — whole volumes back to back — through
/// kPipelineContexts-1 volumes of phase 1 issued ahead of the oldest
/// pending exchange) is replayed through the engine scheduler's queueing
/// discipline and the minimum is returned — the scheduler picks its
/// order from the same replays, so the minimum is what actually runs.
/// Cross-checked against the scheduler by bench_sharded and the batch
/// tests. Frozen: it prices the shard side of the host-staged
/// deal-vs-shard verdicts, and its lookahead argmin is the issue order
/// the executor runs, so its arithmetic is part of pinned timelines.
double sharded_batch_model_ms(const ShardPhases& p, const sim::GpuSpec& spec,
                              std::size_t n, std::size_t shards,
                              std::size_t devices, std::size_t batch);

/// Modeled makespan of the sharded schedule for `devices` homogeneous
/// cards on `topo`, preferring `decomp`. Resolves the same ShardLayout
/// the plan would (shard_layout) and replays that layout's enqueue order
/// — staged downloads and uploads or ring-ordered peer legs, the phase
/// fence, slab or pencil phase 2 — as timed ops on throwaway devices
/// through the simulator's own scheduler; peer legs go through
/// sim::time_transfer over a private link clock, as the executor's do.
/// A peer layout then takes the aggregate bisection floor: half the
/// exchanged bytes must cross the worst even cut, so makespan >=
/// exchange_bytes / 2 / bisection_gbs(). Pass the probe for the *slab*
/// geometry (probe_shard_phases); pencil-specific kernel times are
/// probed internally. Cross-checked against the scheduler by
/// bench_topology (<= 5%).
double topology_model_ms(const ShardPhases& p, const sim::GpuSpec& spec,
                         const sim::Topology& topo, std::size_t n,
                         std::size_t shards, std::size_t devices,
                         Decomposition decomp, Direction dir);

}  // namespace repro::gpufft
