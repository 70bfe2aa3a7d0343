// Fine-grained X-axis kernel for real-input (r2c) and real-output (c2r)
// transforms over the split half-spectrum layout (real3d.h).
//
// Each row of nx reals is stored packed in a power-of-two-pitch row of
// nx/2 complex slots in the main block: slot j holds (x[2j], x[2j+1]) in
// time domain and bin X[j] in frequency domain; the row's Nyquist bin
// X[nx/2] lives in the tail plane at element (nx/2)*count + row. The
// power-of-two pitch is what keeps every half-warp of this kernel (and
// of the coarse ranks that follow) on 16 consecutive, 16-aligned
// elements — a dense nx/2+1 pitch would break G80 coalescing on every
// access. The layout lets the classic half-length packing trick of
// fft/real.* run *in place* on the device: one staged (nx/2)-point
// transform through the shared stage engine, fused with the Hermitian
// unpack (r2c) or pack (c2r) pass through shared memory — so a real line
// costs one half-length FFT plus one extra shared round-trip instead of a
// full complex line, and global traffic is ~(nx/2+1)/nx of the complex
// fine kernel's.
#pragma once

#include <algorithm>

#include "gpufft/smallfft.h"
#include "gpufft/stage_engine.h"
#include "gpufft/tuning.h"
#include "gpufft/types.h"

namespace repro::gpufft {

struct RealFineParams {
  std::size_t nx{256};   ///< real line length (power of two, >= 32)
  std::size_t count{};   ///< number of lines (ny*nz)
  /// Forward: r2c (stages, then the Hermitian unpack); inverse: c2r (the
  /// pack, then the stages).
  Direction dir{Direction::Forward};
  TwiddleSource twiddles{TwiddleSource::Texture};
  unsigned grid_blocks{48};
  unsigned threads_per_block{kDefaultThreadsPerBlock};
  /// Shared-exchange pad stride in words (TuneConfig knob; 0 = none).
  unsigned shmem_pad_words{kDefaultShmemPadWords};
  double scale{1.0};     ///< c2r only: folded into the pack pass

  /// The fused real X pass over `count` nx-real lines under `tune` on
  /// `gpu`. A line is one nx/2-point staged transform, so a block holds
  /// whole groups of nx/8 threads.
  static RealFineParams tuned(const TuneConfig& tune,
                              const sim::GpuSpec& gpu, std::size_t nx,
                              std::size_t count, Direction dir) {
    RealFineParams p;
    p.nx = nx;
    p.count = count;
    p.dir = dir;
    p.twiddles = tune.fine_twiddles;
    p.grid_blocks = tune.grid_for(gpu);
    p.threads_per_block = static_cast<unsigned>(std::max<std::size_t>(
        fine_threads_per_transform(nx / 2), tune.threads_per_block));
    p.shmem_pad_words = tune.shmem_pad_words;
    return p;
  }
};

/// Per-line stride of the real kernel's shared arrays, in elements: the
/// natural-order half-length spectrum, slots 0..nx/2, padded. The stage
/// exchange reuses the first of the two (re, im) arrays.
constexpr std::size_t real_fine_sh_stride(std::size_t nx,
                                          std::size_t pad_words) {
  return shmem_pad(nx / 2, pad_words) + 1;
}

/// Twiddles one real line reads: the nx/2-point stages' plus one
/// full-length twiddle per fused-pass bin.
inline double real_fine_twiddle_fetches(std::size_t nx) {
  return fine_twiddle_fetches(nx / 2) + static_cast<double>(nx / 2);
}

/// The fused real X pass's launch over `p` in double (`fp64`) or single
/// precision: the kernel's config() and the planner's price of that step.
sim::LaunchConfig real_fine_config(const RealFineParams& p, bool fp64);

/// The fused real X pass, in place. Forward (r2c): packed real rows ->
/// half-spectrum rows. Inverse (c2r): half-spectrum rows -> packed real
/// rows, the row's Nyquist tail slot zeroed, scaled by params.scale. Reads
/// the params.dir roots at two lengths, each from a device table when
/// sourced from texture: (nx/2)-point for the stages and nx-point for the
/// unpack or pack pass.
template <typename T>
class RealFineKernelT final : public sim::Kernel {
 public:
  RealFineKernelT(DeviceBuffer<cx<T>>& data, const RealFineParams& params,
                  const DeviceBuffer<cx<T>>* half_twiddles = nullptr,
                  const DeviceBuffer<cx<T>>* full_twiddles = nullptr);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cx<T>>& data_;
  RealFineParams params_;
  std::vector<cx<T>> roots_half_;  ///< (nx/2)-point stage roots
  std::vector<cx<T>> roots_full_;  ///< nx-point unpack/pack roots
  const DeviceBuffer<cx<T>>* device_tw_half_;
  const DeviceBuffer<cx<T>>* device_tw_full_;
};

extern template class RealFineKernelT<float>;
extern template class RealFineKernelT<double>;

using RealFineKernel = RealFineKernelT<float>;

}  // namespace repro::gpufft
