// Coarse-grained multirow kernel: steps 1-4 of the paper's algorithm.
//
// Each thread computes one small (8/16-point) FFT entirely in registers —
// the paper's FFT256_1 / FFT256_2 kernels. The transform always runs along
// dimension 4 of the current 5-D view (the paper's trailing `*`), and the
// two ranks differ only in where the output digit lands and in the
// inter-rank twiddle:
//
//   rank 1:  out(x, k, a, b, c) = W_n^(c*k) * FFT_L( in(x, a, b, c, *) )[k]
//            (reads pattern D, writes pattern A, applies the inter-rank
//             twiddle; the paper's FFT256_1)
//   rank 2:  out(x, a, k, b, c) = FFT_L( in(x, a, b, c, *) )[k]
//            (reads pattern D, writes pattern B; the paper's FFT256_2)
//
// Work items iterate with X innermost ("for Z1,Y2,Y1,X"), cyclically over
// threads and blocks, so half-warps always touch 16 consecutive X values —
// the coalescing the whole design revolves around.
#pragma once

#include <array>

#include "common/tensor.h"
#include "fft/bluestein.h"
#include "gpufft/smallfft.h"
#include "gpufft/tuning.h"
#include "gpufft/types.h"

namespace repro::gpufft {

/// Configuration of one coarse rank launch.
struct RankKernelParams {
  Shape5 in_shape;        ///< dims (nx, a, b, c, L); transform along dim 4
  Direction dir{Direction::Forward};
  TwiddleSource twiddles{TwiddleSource::Registers};
  unsigned grid_blocks{48};
  unsigned threads_per_block{kDefaultThreadsPerBlock};
  /// Element offset of the view into both buffers (the real plan runs the
  /// Nyquist tail plane through the same kernels at the tail's offset).
  std::size_t elem_offset{0};

  /// The coarse steps' launch under `tune` on `gpu`: the tuned coarse
  /// twiddle source, grid and block size (in_shape is set per step).
  static RankKernelParams tuned(const TuneConfig& tune,
                                const sim::GpuSpec& gpu, Direction dir) {
    RankKernelParams p;
    p.dir = dir;
    p.twiddles = tune.coarse_twiddles;
    p.grid_blocks = tune.grid_for(gpu);
    p.threads_per_block = tune.threads_per_block;
    return p;
  }
};

/// Table 2's access patterns as one index map: the addresses of a kernel
/// that moves one L-point digit per work item through a 5-D view. The
/// digit is dim `load_dim` of `in_shape` and lands at dim `store_dim` of
/// the output view: the item view (the input without the digit's dim, X
/// fastest) with the digit inserted there. Item w's point q, with the
/// digit at dim p, sits at w % s + s*L*(w / s) + s*q, where s is the
/// product of the item view's first p extents; dims 1-4 are patterns A-D.
/// The rank kernels, the Z pencil and the pattern copies issue it, and
/// the planner samples it.
struct RankWalk {
  RankWalk(const Shape5& in_shape, std::size_t load_dim,
           std::size_t store_dim)
      : items(in_shape.volume() / in_shape.extent[load_dim]),
        L(in_shape.extent[load_dim]),
        load_stride(in_shape.stride(load_dim)),
        store_stride(store_dim <= load_dim
                         ? in_shape.stride(store_dim)
                         : in_shape.stride(store_dim + 1) / L) {}

  /// A coarse rank launch: both ranks read pattern D (dim 4); rank 1
  /// writes pattern A (dim 1, the paper's FFT256_1), rank 2 pattern B
  /// (dim 2, FFT256_2).
  RankWalk(const Shape5& in_shape, bool rank1)
      : RankWalk(in_shape, 4, rank1 ? 1 : 2) {}

  /// Item w's point 0 on each side; point q is `stride * q` further.
  [[nodiscard]] std::size_t load_base(std::size_t w) const {
    return base(w, load_stride);
  }
  [[nodiscard]] std::size_t store_base(std::size_t w) const {
    return base(w, store_stride);
  }

  std::size_t items;         ///< work items, one digit each
  std::size_t L;             ///< points per item
  std::size_t load_stride;   ///< element stride of the input digit
  std::size_t store_stride;  ///< element stride of the output digit

 private:
  [[nodiscard]] std::size_t base(std::size_t w, std::size_t s) const {
    return w % s + s * L * (w / s);
  }
};

/// The launch of a coarse rank kernel over `p.in_shape`, in double (`fp64`)
/// or single precision: one small FFT per item plus, for rank 1 (`rank1`),
/// the inter-rank twiddle multiplies. Rank 2 applies no twiddle, so it
/// always budgets the register-table variant's registers. The kernel's
/// config() and the planner's price of a coarse step.
sim::LaunchConfig rank_config(const RankKernelParams& p, bool rank1,
                              bool fp64);

/// One of the five-step plan's four coarse-rank launches (steps 1-4).
struct CoarseRankStep {
  const char* name;     ///< "Z rank1", "Z rank2", "Y rank1" or "Y rank2"
  Shape5 in_shape;      ///< the kernel's input view; transform along dim 4
  bool rank1;           ///< Rank1 (with the inter-rank twiddle) or Rank2
  bool z_axis;          ///< transforms Z (else Y)
  std::size_t axis_n;   ///< length of that axis (the rank-1 twiddle table)
};

/// Steps 1-4 over an (ex, ny, nz) volume split as `sy`/`sz`: the Z-axis
/// rank pair, then the Y-axis pair. The x-extent ex = shape.nx is a free
/// row pitch. Each view's digit permutation feeds the next, and after step
/// 4 the volume is back in natural order. The executor (run_coarse_ranks)
/// and the tuner's coarse model both walk this one table.
inline std::array<CoarseRankStep, 4> coarse_rank_steps(Shape3 shape,
                                                       AxisSplit sy,
                                                       AxisSplit sz) {
  const std::size_t ex = shape.nx;
  const auto [f1y, f2y] = sy;
  const auto [f1z, f2z] = sz;
  return {{
      // (ex, f1y, f2y, f1z, f2z) -> (ex, f2z, f1y, f2y, f1z)
      {"Z rank1", Shape5{{ex, f1y, f2y, f1z, f2z}}, true, true, shape.nz},
      // -> (ex, f2z, f1z, f1y, f2y)
      {"Z rank2", Shape5{{ex, f2z, f1y, f2y, f1z}}, false, true, shape.nz},
      // -> (ex, f2y, f2z, f1z, f1y)
      {"Y rank1", Shape5{{ex, f2z, f1z, f1y, f2y}}, true, false, shape.ny},
      // -> (ex, f2y, f1y, f2z, f1z) == natural order
      {"Y rank2", Shape5{{ex, f2y, f2z, f1z, f1y}}, false, false, shape.ny},
  }};
}

/// Steps 1-4 kernel: rank 1 (`rank1`, steps 1/3) or rank 2 (steps 2/4).
/// Templated over the scalar type: float reproduces the paper; double is
/// its Section 4.5 future work and only runs on fp64-capable specs (GTX
/// 280).
template <typename T>
class RankKernelT final : public sim::Kernel {
 public:
  /// `n` is the full axis length f1*f2: rank 1's twiddle table has n
  /// entries (`device_twiddles` holds them for TwiddleSource::Texture).
  /// Rank 2 reads no twiddle and ignores both.
  RankKernelT(DeviceBuffer<cx<T>>& in, DeviceBuffer<cx<T>>& out,
              const RankKernelParams& params, bool rank1, std::size_t n = 0,
              const DeviceBuffer<cx<T>>* device_twiddles = nullptr);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cx<T>>& in_;
  DeviceBuffer<cx<T>>& out_;
  RankKernelParams params_;
  bool rank1_;
  std::vector<cx<T>> roots_l_;             ///< factor-size roots
  std::vector<cx<T>> roots_n_;             ///< inter-rank twiddles (rank 1)
  const DeviceBuffer<cx<T>>* device_tw_;   ///< for TwiddleSource::Texture
};

extern template class RankKernelT<float>;
extern template class RankKernelT<double>;

/// Single-precision alias (the paper's configuration).
using RankKernel = RankKernelT<float>;

// ---- Mixed-radix / Bluestein line kernels (the Mixed3D plan's ranks) ----

/// Which volume axis a mixed-radix line kernel transforms.
enum class MixedAxis { X, Y, Z };

inline const char* mixed_axis_name(MixedAxis a) {
  return a == MixedAxis::X ? "X" : (a == MixedAxis::Y ? "Y" : "Z");
}

/// The line walk of one whole-axis pass over a `shape` volume whose rows
/// are `pitch` elements apart: which lines the pass transforms, the thread
/// index domain it walks and where each line's points sit.
///
/// The Y and Z passes walk their x-major line index over the row *pitch*
/// rather than nx, idling the threads that land in the pad: with a padded
/// 16-element pitch every half-warp therefore starts on a coalescing
/// segment boundary, which is the whole point of padding. Dense layouts
/// have pitch == nx and the walk degenerates to the obvious one.
/// MixedAxisKernelT walks it, and the planner samples its addresses.
struct MixedAxisWalk {
  MixedAxisWalk(Shape3 shape, std::size_t pitch, MixedAxis axis);

  /// Element offset of line `li`'s first point, or SIZE_MAX when `li`
  /// addresses a pad slot (x >= nx) and the thread must idle.
  [[nodiscard]] std::size_t line_base(std::size_t li) const {
    switch (axis) {
      case MixedAxis::X:
        return li * pitch;
      case MixedAxis::Y: {
        // li = (z, x), x fastest over the pitch: consecutive threads walk
        // consecutive X and every pitch-aligned group shares one row phase.
        const std::size_t x = li % pitch;
        if (x >= shape.nx) return SIZE_MAX;  // pad slot, idle thread
        return (li / pitch) * shape.ny * pitch + x;
      }
      default: {
        const std::size_t x = li % pitch;
        if (x >= shape.nx) return SIZE_MAX;
        return (li / pitch) * pitch + x;
      }
    }
  }

  Shape3 shape;
  std::size_t pitch;
  MixedAxis axis;
  std::size_t n;       ///< axis length (points per line)
  std::size_t lines;   ///< lines the pass transforms (the cross-section)
  std::size_t slots;   ///< indexed thread-walk domain (>= lines)
  std::size_t stride;  ///< element stride between points of one line
};

/// The launch of one MixedAxisKernelT pass over `walk`, in double (`fp64`)
/// or single precision: the kernel's config() and the planner's price of
/// a Mixed3D axis pass.
sim::LaunchConfig mixed_axis_config(const MixedAxisWalk& walk, bool fp64,
                                    unsigned grid_blocks,
                                    unsigned threads_per_block);

/// One whole-axis pass of the Mixed3D plan: every line along `axis` is
/// transformed in place by one thread, which gathers it into thread-local
/// storage, runs the host reference's `engine` on it (mixed-radix
/// Stockham, or Bluestein's chirp multiplies and pow2 convolution FFTs)
/// and scatters it back. Rows are `row_pitch` elements apart, so the same
/// kernel serves the dense and the padded layout — the planner's
/// PitchMode only moves the addresses.
template <typename T>
class MixedAxisKernelT final : public sim::Kernel {
 public:
  MixedAxisKernelT(DeviceBuffer<cx<T>>& data, Shape3 shape,
                   std::size_t row_pitch, MixedAxis axis,
                   const fft::AxisFft<T>& engine, unsigned grid_blocks,
                   unsigned threads_per_block);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cx<T>>& data_;
  MixedAxisWalk walk_;
  const fft::AxisFft<T>& engine_;
  unsigned grid_;
  unsigned tpb_;
};

extern template class MixedAxisKernelT<float>;
extern template class MixedAxisKernelT<double>;

}  // namespace repro::gpufft
