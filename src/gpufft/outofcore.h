// Section 3.3: 3-D FFTs larger than the device memory.
//
// An n^3 volume (n = 512 in the paper) that cannot fit on the card is
// processed in two streamed phases over PCI-Express, decimating the Z axis
// into `splits` interleaved slabs (8 for 512^3):
//
//   Phase 1, for each residue I in [0, splits):
//     1A. send the n x n x (n/splits) slab of planes z = I + splits*j
//     1B. 3-D FFT of the slab (full X and Y, n/splits-point partial Z)
//     1C. multiply the inter-rank twiddles W_n^(I * k')
//     1D. receive the slab into WORK at planes z' = I + splits*k'
//   Phase 2, for each k' in [0, n/splits):
//     2A. send the `splits` contiguous planes starting at splits*k'
//     2B. splits-point FFTs along Z for every (x, y) ("1 x 1 x 8 FFTs")
//     2C. receive into the result at planes z = k' + (n/splits)*k''
//
// The data crosses the PCIe link twice in each direction, which is what
// Table 12 quantifies.
//
// The slabs are streamed: two slab buffers, two sim::Streams, residues
// (and phase-2 groups) alternating between them, so slab r+1's upload and
// slab r-1's download overlap slab r's on-card FFT wherever the card's
// copy engines allow (Section 4.4 asynchronous transfers). Events fence
// the phase-1 -> phase-2 boundary, since every phase-2 group gathers
// planes produced by all phase-1 residues. The per-bucket duration sums
// (Table 12 rows) are schedule-independent; `makespan_ms` carries the
// overlapped wall-clock the scheduler resolved.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpufft/fft_plan.h"
#include "gpufft/plan.h"
#include "gpufft/smallfft.h"
#include "gpufft/types.h"

namespace repro::gpufft {

/// splits-point FFTs along the local Z axis of an (nx, ny, splits) slab,
/// one per (x, y) pencil.
class ZPencilFftKernel final : public sim::Kernel {
 public:
  /// `elem_offset` shifts the slab view into `data` (the sharded executor
  /// runs each plane-layout region through its own instance).
  ZPencilFftKernel(DeviceBuffer<cxf>& data, Shape3 slab, Direction dir,
                   unsigned grid_blocks, std::size_t elem_offset = 0,
                   unsigned threads_per_block = kDefaultThreadsPerBlock);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cxf>& data_;
  Shape3 slab_;
  Direction dir_;
  std::vector<cxf> roots_;
  unsigned grid_;
  std::size_t offset_;
  unsigned threads_;
};

/// Multiply plane k' of an (nx, ny, nk) slab by W_n^(residue * k')
/// (step 1C).
class SlabTwiddleKernel final : public sim::Kernel {
 public:
  SlabTwiddleKernel(DeviceBuffer<cxf>& data, Shape3 slab, std::size_t n,
                    std::size_t residue, Direction dir, unsigned grid_blocks,
                    std::size_t elem_offset = 0,
                    unsigned threads_per_block = kDefaultThreadsPerBlock);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cxf>& data_;
  Shape3 slab_;
  std::vector<cxf> roots_n_;
  std::size_t residue_;
  unsigned grid_;
  std::size_t offset_;
  unsigned threads_;
};

/// The seven Table 12 timing buckets of one Z-decimated run on one device
/// (duration sums, schedule independent). The exchange is the d2h1 + h2d2
/// legs; on peer fabrics a d2d leg's send side lands in d2h1 and its
/// receive side in h2d2, so the buckets keep their meaning across
/// topologies.
struct ShardTiming {
  double h2d1_ms{}, fft1_ms{}, twiddle_ms{}, d2h1_ms{};
  double h2d2_ms{}, fft2_ms{}, d2h2_ms{};
  /// Bytes the all-to-all moved: both staged legs (the phase-1 download
  /// and the phase-2 upload) on host-staged layouts, each d2d leg once on
  /// peer layouts.
  std::uint64_t exchange_bytes{};

  ShardTiming& operator+=(const ShardTiming& o) {
    h2d1_ms += o.h2d1_ms;
    fft1_ms += o.fft1_ms;
    twiddle_ms += o.twiddle_ms;
    d2h1_ms += o.d2h1_ms;
    h2d2_ms += o.h2d2_ms;
    fft2_ms += o.fft2_ms;
    d2h2_ms += o.d2h2_ms;
    exchange_bytes += o.exchange_bytes;
    return *this;
  }
  [[nodiscard]] double busy_ms() const {
    return h2d1_ms + fft1_ms + twiddle_ms + d2h1_ms + h2d2_ms + fft2_ms +
           d2h2_ms;
  }
  [[nodiscard]] double exchange_ms() const { return d2h1_ms + h2d2_ms; }
  [[nodiscard]] double compute_ms() const {
    return fft1_ms + twiddle_ms + fft2_ms;
  }
};

/// Phase-level timing breakdown of the out-of-core plan (Table 12
/// columns). makespan_ms is the streamed wall-clock (<= total_ms() exactly
/// when the scheduler found overlap).
struct OutOfCoreTiming : ShardTiming {
  double makespan_ms{};  ///< overlapped elapsed time of the whole run
  [[nodiscard]] double total_ms() const { return busy_ms(); }
};

/// The seven Table 12 rows of `t`. Each phase touches `elems` complex
/// elements once in each direction (useful_gbs); a zero-time row reports
/// zero bandwidth.
std::vector<StepTiming> table12_rows(const ShardTiming& t, std::size_t elems);

/// The Z-decimation rule: S slabs can split an n-point Z axis when S
/// divides n and is a power-of-two small-FFT factor (the slabs run one
/// small-FFT rank across them). The plans enforce it through
/// checked_decimation; the planner's slab-depth search skips depths that
/// break it.
constexpr bool valid_decimation(std::size_t n, std::size_t s) {
  return s >= 2 && s <= kMaxFactor && is_pow2(s) && n % s == 0;
}

/// The Z-decimation factor S of a plan over an n^3 volume: the TuneConfig
/// slab-depth knob overrides `requested` when set. Throws Error naming n
/// and S unless valid_decimation(n, S).
std::size_t checked_decimation(std::size_t n, std::size_t requested,
                               const TuneConfig& tune);

/// Description of the inner plan that transforms one staged slab: `slab`
/// with the tuned knobs but not the decimation itself (the slab plan must
/// not re-decimate). The pitch knob is cleared because the streamed
/// staging copies assume densely packed slabs.
PlanDesc slab_plan_desc(PlanDesc slab, TuneConfig tune);

/// Out-of-core 3-D FFT of a host-resident cube of side n, streaming slabs
/// of n/splits planes through the device. Transforms `host_data` in
/// place. As an FftPlan it supports execute_host only — the volume never
/// fits on the card, so execute(DeviceBuffer&) fails by design. The slab
/// staging buffer is leased from the cache arena per run; the inner slab
/// plan is shared through the registry.
class OutOfCoreFft3D final : public FftPlanT<float> {
 public:
  /// `splits` is the decimation S (checked_decimation); the slab (2
  /// buffers) must fit on the card.
  /// A non-zero tune.slab_depth overrides `splits` (the TuneConfig knob).
  OutOfCoreFft3D(Device& dev, std::size_t n, std::size_t splits,
                 Direction dir, TuneConfig tune = {});

  OutOfCoreTiming execute(std::span<cxf> host_data);
  /// Re-expose the device-resident entry point the span overload hides.
  using FftPlanT<float>::execute;

  /// Unsupported: the whole point of this plan is that the volume does
  /// not fit in device memory.
  std::vector<StepTiming> execute_impl(DeviceBuffer<cxf>& data) override;

  /// The FftPlan host entry point (phase-level rows of Table 12).
  /// last_total_ms() afterwards reports the overlapped makespan.
  std::vector<StepTiming> execute_host(std::span<cxf> data) override;

  /// Many cubes, back to back: they cannot double-buffer on the card, and
  /// each streamed run overlaps internally (execute_host_back_to_back).
  std::vector<StepTiming> execute_batch_host(
      std::span<const std::span<cxf>> volumes) override;

  /// Phase breakdown of the last execute()/execute_host().
  [[nodiscard]] const OutOfCoreTiming& last_timing() const {
    return last_timing_;
  }

 private:
  OutOfCoreTiming execute_impl(std::span<cxf> host_data);

  std::size_t n_;
  std::size_t splits_;
  Shape3 slab_shape_;
  std::shared_ptr<FftPlan> slab_plan_;
  std::vector<cxf> host_work_;
  OutOfCoreTiming last_timing_{};
};

}  // namespace repro::gpufft
