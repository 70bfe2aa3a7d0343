// "CUFFT 1.1 class" baselines (the CUFFT3D / CUFFT1D bars of Figures 1-3
// and Table 8).
//
// The paper characterizes the contemporary CUFFT as a straightforward
// stream-programming FFT that does not engineer its device-memory access
// patterns. We model that class of implementation:
//
//   Naive1DFftKernel — batched shared-memory Stockham FFT over contiguous
//   lines, but radix-2 (twice the stages of our radix-4 kernel), exchanging
//   whole complex values through *unpadded* shared memory (two-way bank
//   conflicts), twiddles from constant memory where divergent indices
//   serialize. Functionally correct; merely untuned — like CUFFT1D.
//
//   GlobalRadix2Pass — one radix-2 Stockham rank over global memory along
//   an arbitrary axis (ping-pong buffers). A 3-D transform takes log2(n)
//   passes per axis, each moving the whole volume at stride-heavy access
//   patterns — the CUFFT3D behaviour that loses 3x+ to the paper's kernel.
#pragma once

#include "gpufft/fft_plan.h"
#include "gpufft/smallfft.h"
#include "gpufft/types.h"

namespace repro::gpufft {

/// Batched radix-2 shared-memory FFT over `count` contiguous lines of
/// length n (one transform per n/2 threads).
class Naive1DFftKernel final : public sim::Kernel {
 public:
  Naive1DFftKernel(DeviceBuffer<cxf>& in, DeviceBuffer<cxf>& out,
                   std::size_t n, std::size_t count, Direction dir,
                   unsigned grid_blocks);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cxf>& in_;
  DeviceBuffer<cxf>& out_;
  std::size_t n_;
  std::size_t count_;
  Direction dir_;
  std::vector<cxf> roots_;
  unsigned grid_{};
};

/// Axis selector for the strided global passes.
enum class Axis { X, Y, Z };

/// One radix-2 Stockham rank along `axis` of a Shape3 volume:
/// out[... k + m*(2j+r) ...] from in[... k + m*(j+l*q) ...].
class GlobalRadix2Pass final : public sim::Kernel {
 public:
  GlobalRadix2Pass(DeviceBuffer<cxf>& in, DeviceBuffer<cxf>& out,
                   Shape3 shape, Axis axis, std::size_t l, std::size_t m,
                   Direction dir, unsigned grid_blocks);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cxf>& in_;
  DeviceBuffer<cxf>& out_;
  Shape3 shape_;
  Axis axis_;
  std::size_t l_;
  std::size_t m_;
  Direction dir_;
  std::vector<cxf> roots_;
  unsigned grid_{};
};

/// Plain device-to-device copy (used when a pass chain ends in the work
/// buffer).
class DeviceCopyKernel final : public sim::Kernel {
 public:
  DeviceCopyKernel(DeviceBuffer<cxf>& in, DeviceBuffer<cxf>& out,
                   std::size_t count, unsigned grid_blocks);
  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cxf>& in_;
  DeviceBuffer<cxf>& out_;
  std::size_t count_;
  unsigned grid_;
};

/// CUFFT3D-like plan: shared-memory batched FFT along X, then log2(n)
/// strided global radix-2 passes for Y and for Z. The ping-pong buffer is
/// leased from the ResourceCache arena per execute.
class NaiveFft3D final : public FftPlanT<float> {
 public:
  NaiveFft3D(Device& dev, Shape3 shape, Direction dir,
             unsigned grid_blocks = 0);

  std::vector<StepTiming> execute_impl(DeviceBuffer<cxf>& data) override;
};

}  // namespace repro::gpufft
