// Conventional six-step 3-D FFT baseline (Section 3, Table 6).
//
//   Step 1  1-D FFTs along X           Step 2  transpose (x,y,z)->(z,x,y)
//   Step 3  1-D FFTs along Z           Step 4  transpose (z,x,y)->(y,z,x)
//   Step 5  1-D FFTs along Y           Step 6  transpose (y,z,x)->(x,y,z)
//
// Each FFT step runs on contiguous lines (fast); the explicit transposes
// are pure data movement whose writes cannot coalesce — the paper measures
// them at roughly half the FFT steps' bandwidth, which is why its
// five-step algorithm folds the reordering into the FFT passes instead.
#pragma once

#include <memory>

#include "gpufft/fft_plan.h"
#include "gpufft/fine_kernel.h"
#include "gpufft/tuning.h"
#include "gpufft/types.h"

namespace repro::gpufft {

/// Out-of-place cyclic transpose: in(n0, n1, n2) -> out(n2, n0, n1),
/// i.e. out[c + n2*(a + n0*b)] = in[a + n0*(b + n1*c)]. Reads are
/// coalesced (a innermost); writes stride by n2 and serialize.
class TransposeKernel final : public sim::Kernel {
 public:
  TransposeKernel(DeviceBuffer<cxf>& in, DeviceBuffer<cxf>& out,
                  Shape3 in_shape, unsigned grid_blocks,
                  unsigned threads_per_block = kDefaultThreadsPerBlock);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cxf>& in_;
  DeviceBuffer<cxf>& out_;
  Shape3 shape_;
  unsigned grid_;
  unsigned threads_;
};

/// Tiled shared-memory transpose (extension beyond the paper's baseline):
/// 16x16 tiles are staged through padded shared memory so BOTH the read
/// and the write side coalesce — the SDK-style transpose that became
/// standard shortly after the paper. The ablation bench shows that even
/// with it, the six-step algorithm cannot catch the five-step kernel.
class TiledTransposeKernel final : public sim::Kernel {
 public:
  TiledTransposeKernel(DeviceBuffer<cxf>& in, DeviceBuffer<cxf>& out,
                       Shape3 in_shape, unsigned grid_blocks);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

  static constexpr std::size_t kTile = 16;

 private:
  DeviceBuffer<cxf>& in_;
  DeviceBuffer<cxf>& out_;
  Shape3 shape_;
  unsigned grid_;
};

/// The six-step plan (TransposeStrategy selects the transpose kernel; the
/// enum lives in plan_desc.h). Twiddles come shared from the
/// ResourceCache; the ping-pong buffer is leased per execute.
class ConventionalFft3D final : public FftPlanT<float> {
 public:
  ConventionalFft3D(Device& dev, Shape3 shape, Direction dir,
                    TuneConfig tune = {},
                    TransposeStrategy transpose = TransposeStrategy::Naive);

  std::vector<StepTiming> execute_impl(DeviceBuffer<cxf>& data) override;

  [[nodiscard]] Shape3 shape() const { return desc_.shape; }

 private:
  std::shared_ptr<const DeviceBuffer<cxf>> tw_x_;
  std::shared_ptr<const DeviceBuffer<cxf>> tw_y_;
  std::shared_ptr<const DeviceBuffer<cxf>> tw_z_;
};

}  // namespace repro::gpufft
