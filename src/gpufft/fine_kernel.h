// Fine-grained X-axis kernel: step 5 of the paper's algorithm.
//
// One n-point transform is computed cooperatively by n/4 threads, each
// holding four complex values in registers (8 registers of data — the
// paper's fine-grained parallelism). Stages are radix-4 (radix-2 fixup for
// n = 2*4^k) Stockham ranks; between stages the values cross threads
// through on-chip shared memory, exchanging all real parts first and then
// all imaginary parts so only n floats (+ anti-bank-conflict padding) of
// shared memory are needed — both tricks straight from Section 3.2.
// Twiddle factors come from texture memory by default (the paper's pick
// for this kernel).
//
// The same kernel is the paper's batched 1-D FFT of Table 8 and the
// compute step of the conventional six-step baseline.
#pragma once

#include <algorithm>

#include "gpufft/smallfft.h"
#include "gpufft/stage_engine.h"
#include "gpufft/tuning.h"
#include "gpufft/types.h"

namespace repro::gpufft {

struct FineKernelParams {
  std::size_t n{256};          ///< transform length (power of two, >= 16)
  std::size_t count{};         ///< number of transforms (contiguous lines)
  Direction dir{Direction::Forward};
  TwiddleSource twiddles{TwiddleSource::Texture};
  unsigned grid_blocks{48};
  unsigned threads_per_block{kDefaultThreadsPerBlock};
  /// Shared-exchange pad stride in words (TuneConfig knob; 0 = none).
  unsigned shmem_pad_words{kDefaultShmemPadWords};

  /// Step 5's launch over `count` n-point lines under `tune` on `gpu`. A
  /// block holds whole transform groups of n/4 threads, so 512-point
  /// lines raise the tuned block size to 128 threads.
  static FineKernelParams tuned(const TuneConfig& tune,
                                const sim::GpuSpec& gpu, std::size_t n,
                                std::size_t count, Direction dir) {
    FineKernelParams p;
    p.n = n;
    p.count = count;
    p.dir = dir;
    p.twiddles = tune.fine_twiddles;
    p.grid_blocks = tune.grid_for(gpu);
    p.threads_per_block = static_cast<unsigned>(std::max<std::size_t>(
        fine_threads_per_transform(n), tune.threads_per_block));
    p.shmem_pad_words = tune.shmem_pad_words;
    return p;
  }
};

/// The fine kernel's launch over `p` in double (`fp64`) or single
/// precision: the kernel's config() and the planner's price of step 5.
sim::LaunchConfig fine_config(const FineKernelParams& p, bool fp64);

/// Cooperative n-point FFT over `count` contiguous lines; in-place when
/// `out == in`. Templated over the scalar type (double = the paper's
/// Section 4.5 future work; its wider shared-memory words pay real bank
/// conflicts and its flops run on the scarce DP units).
template <typename T>
class FineFftKernelT final : public sim::Kernel {
 public:
  FineFftKernelT(DeviceBuffer<cx<T>>& in, DeviceBuffer<cx<T>>& out,
                 const FineKernelParams& params,
                 const DeviceBuffer<cx<T>>* device_twiddles = nullptr);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cx<T>>& in_;
  DeviceBuffer<cx<T>>& out_;
  FineKernelParams params_;
  std::vector<cx<T>> roots_n_;
  const DeviceBuffer<cx<T>>* device_tw_;
};

extern template class FineFftKernelT<float>;
extern template class FineFftKernelT<double>;

/// Single-precision alias (the paper's configuration).
using FineFftKernel = FineFftKernelT<float>;

}  // namespace repro::gpufft
