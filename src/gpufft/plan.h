// The paper's contribution: the bandwidth-intensive five-step 3-D FFT plan.
//
// For a volume (nx, ny, nz) with each axis split n = f1*f2 (f1, f2 <= 16):
//   Step 1  rank-1 16-point FFTs, first half of the Z-axis transform
//           (reads pattern D, writes pattern A)
//   Step 2  rank-2 16-point FFTs, second half of the Z-axis transform
//           (reads pattern D, writes pattern B)
//   Step 3  same as step 1 for the Y axis
//   Step 4  same as step 2 for the Y axis
//   Step 5  fine-grained nx-point FFTs along X through shared memory
// The digit permutations of the four coarse steps compose so that both the
// input and the output of the full plan are plain natural-order volumes —
// the transposes the conventional algorithm pays for explicitly are folded
// into the store patterns of steps 1-4, every one of which keeps at least
// one side of the traffic in the fast A/B patterns of Table 3/4.
#pragma once

#include <array>
#include <functional>
#include <memory>

#include "gpufft/fft_plan.h"
#include "gpufft/fine_kernel.h"
#include "gpufft/rank_kernels.h"
#include "gpufft/tuning.h"
#include "gpufft/types.h"

namespace repro::gpufft {

// The plan options are the tuning knobs themselves (TuneConfig,
// gpufft/tuning.h), so a default-constructed option block still
// reproduces the paper's configuration exactly.

/// Callback invoked once per coarse-rank launch with a short step name
/// ("Z rank1", ...) and the launch's timing.
using RankStepRecorder =
    std::function<void(const char*, const LaunchResult&)>;

/// Steps 1-4 of the five-step plan — the Z-axis then Y-axis coarse rank
/// pairs of coarse_rank_steps (rank_kernels.h) — over an (ex, ny, nz)
/// volume. The x-extent `ex` = shape.nx is a free row pitch, not required
/// to be a power of two: this is what lets the real plans (real3d.h) run
/// the identical kernels over half-spectrum (nx/2+1) pencils. Data
/// ping-pongs data -> work -> data -> work -> data, so on return the
/// Z/Y-transformed volume is back in `data` in natural order. `base`
/// supplies dir/twiddle-source/grid; in_shape is overwritten per step.
template <typename T>
void run_coarse_ranks(Device& dev, DeviceBuffer<cx<T>>& data,
                      DeviceBuffer<cx<T>>& work, Shape3 shape, AxisSplit sy,
                      AxisSplit sz, const RankKernelParams& base,
                      const DeviceBuffer<cx<T>>* tw_y,
                      const DeviceBuffer<cx<T>>* tw_z,
                      const RankStepRecorder& record);

extern template void run_coarse_ranks<float>(
    Device&, DeviceBuffer<cx<float>>&, DeviceBuffer<cx<float>>&, Shape3,
    AxisSplit, AxisSplit, const RankKernelParams&,
    const DeviceBuffer<cx<float>>*, const DeviceBuffer<cx<float>>*,
    const RankStepRecorder&);
extern template void run_coarse_ranks<double>(
    Device&, DeviceBuffer<cx<double>>&, DeviceBuffer<cx<double>>&, Shape3,
    AxisSplit, AxisSplit, const RankKernelParams&,
    const DeviceBuffer<cx<double>>*, const DeviceBuffer<cx<double>>*,
    const RankStepRecorder&);

/// Five-step 3-D FFT executing on a simulated device. Plan once, execute
/// many; twiddle tables are shared through the ResourceCache and the work
/// buffer is leased from its arena per execute, so idle plans hold no
/// full-volume memory. Templated over the scalar type: float is the
/// paper's configuration; double (its Section 4.5 future work) requires
/// an fp64-capable spec such as geforce_gtx_280().
template <typename T>
class BandwidthFft3DT final : public FftPlanT<T> {
 public:
  BandwidthFft3DT(Device& dev, Shape3 shape, Direction dir,
                  TuneConfig options = {});

  /// Transform `data` (natural x-fastest volume on the device) in place.
  /// Returns per-step timings (Table 7 rows).
  std::vector<StepTiming> execute_impl(DeviceBuffer<cx<T>>& data) override;

  [[nodiscard]] Shape3 shape() const { return this->desc_.shape; }
  [[nodiscard]] Direction direction() const { return this->desc_.dir; }

 private:
  AxisSplit sy_;
  AxisSplit sz_;
  /// Shared device twiddle tables (one per distinct axis length).
  std::shared_ptr<const DeviceBuffer<cx<T>>> tw_x_;  ///< step-5 (nx roots)
  std::shared_ptr<const DeviceBuffer<cx<T>>> tw_y_;  ///< step-3 texture
  std::shared_ptr<const DeviceBuffer<cx<T>>> tw_z_;  ///< step-1 texture
};

extern template class BandwidthFft3DT<float>;
extern template class BandwidthFft3DT<double>;

/// Single-precision alias (the paper's configuration).
using BandwidthFft3D = BandwidthFft3DT<float>;

/// Elementwise scale kernel: the explicit 1/N normalization after a
/// complex inverse transform (the convolution engine, the Poisson solver).
template <typename T>
class ScaleKernelT final : public sim::Kernel {
 public:
  ScaleKernelT(DeviceBuffer<cx<T>>& data, std::size_t count, T factor,
               unsigned grid_blocks);
  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cx<T>>& data_;
  std::size_t count_;
  T factor_;
  unsigned grid_;
};

extern template class ScaleKernelT<float>;
extern template class ScaleKernelT<double>;

using ScaleKernel = ScaleKernelT<float>;

}  // namespace repro::gpufft
