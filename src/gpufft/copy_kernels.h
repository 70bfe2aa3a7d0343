// Memory micro-benchmark kernels from Sections 2.1 and 3.1.
//
// PatternCopyKernel reproduces the Table 3/4 measurement: copy the 5-D
// array V(256,16,16,16,16) where each thread moves 16 elements along one
// of the four outer dimensions of the input (patterns A-D of Table 2) and
// writes them along a possibly different dimension of the output. It
// walks RankWalk (rank_kernels.h), the map the FFT kernels issue, so each
// measured pair is a pair a kernel can move data along.
//
// MultiStreamCopyKernel reproduces the Section 2.1 stream-count sweep: the
// multirow access shape, S concurrent streams advancing in lockstep, whose
// bandwidth decays from single-stream copy speed as S grows.
//
// Multirow256Kernel is the rejected design of Section 3.1: one full
// 256-point FFT per thread, needing ~512+ registers so that only 8 threads
// fit on an SM — included so the bench can show why the paper chose
// 16-point kernels.
#pragma once

#include "gpufft/smallfft.h"
#include "gpufft/tuning.h"
#include "gpufft/types.h"

namespace repro::gpufft {

/// Table 2 geometry: 256 x 16^4.
inline Shape5 pattern_shape() { return Shape5{{256, 16, 16, 16, 16}}; }

class PatternCopyKernel final : public sim::Kernel {
 public:
  PatternCopyKernel(DeviceBuffer<cxf>& in, DeviceBuffer<cxf>& out,
                    Pattern in_pattern, Pattern out_pattern,
                    unsigned grid_blocks,
                    unsigned threads_per_block = kDefaultThreadsPerBlock);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cxf>& in_;
  DeviceBuffer<cxf>& out_;
  Pattern in_p_;
  Pattern out_p_;
  unsigned grid_;
  unsigned threads_;
};

/// S streams copied in lockstep (multirow shape): stream s occupies the
/// contiguous range [s*len, (s+1)*len) of both buffers; every thread walks
/// its X positions and touches all S streams per position.
class MultiStreamCopyKernel final : public sim::Kernel {
 public:
  MultiStreamCopyKernel(DeviceBuffer<cxf>& in, DeviceBuffer<cxf>& out,
                        std::size_t streams, unsigned grid_blocks,
                        unsigned threads_per_block = kDefaultThreadsPerBlock);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cxf>& in_;
  DeviceBuffer<cxf>& out_;
  std::size_t streams_;
  unsigned grid_;
  unsigned threads_;
};

/// One 256-point FFT per thread over rows of a (rows x 256) row-major
/// matrix, points at stride `rows` — the multirow design the paper rejects.
class Multirow256Kernel final : public sim::Kernel {
 public:
  Multirow256Kernel(DeviceBuffer<cxf>& in, DeviceBuffer<cxf>& out,
                    std::size_t rows, Direction dir);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cxf>& in_;
  DeviceBuffer<cxf>& out_;
  std::size_t rows_;
  Direction dir_;
  std::vector<cxf> roots_;
  fft::TwiddleTable<float> table_;
};

}  // namespace repro::gpufft
