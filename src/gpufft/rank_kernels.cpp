#include "gpufft/rank_kernels.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>

#include "gpufft/stage_engine.h"

namespace repro::gpufft {
namespace {

/// Register budgets matching Section 3.1: the 16-point kernels compile to
/// 51-52 registers; the texture/constant variants need fewer.
int rank_kernel_regs(TwiddleSource tw, std::size_t factor, bool fp64) {
  // Data + temporaries: ~3.5 registers per complex value held; double
  // precision needs two 32-bit registers per word.
  const int base = factor == 32 ? 72 : (factor == 16 ? 40 : 24);
  const int regs = tw == TwiddleSource::Registers ? base + 12 : base + 4;
  return fp64 ? 2 * regs : regs;
}

/// Addressing/control cycles per rank-kernel work item beyond FP and
/// memory (index decomposition of the fused 4-level loop).
constexpr double kRankAddressingCyclesPerItem = 48.0;

}  // namespace

template <typename T>
RankKernelT<T>::RankKernelT(DeviceBuffer<cx<T>>& in, DeviceBuffer<cx<T>>& out,
                            const RankKernelParams& params, bool rank1,
                            std::size_t n,
                            const DeviceBuffer<cx<T>>* device_twiddles)
    : in_(in),
      out_(out),
      params_(params),
      rank1_(rank1),
      roots_l_(make_roots<T>(params.in_shape.extent[4], params.dir)),
      roots_n_(rank1 ? make_roots<T>(n, params.dir) : std::vector<cx<T>>{}),
      device_tw_(device_twiddles) {
  REPRO_CHECK(in_.size() >= params_.elem_offset + params_.in_shape.volume());
  REPRO_CHECK(out_.size() >= params_.elem_offset + params_.in_shape.volume());
  if (!rank1_) return;
  // Twiddle indexing uses c*k < n: c < extent[3], k < extent[4].
  REPRO_CHECK((params_.in_shape.extent[3] - 1) *
                  (params_.in_shape.extent[4] - 1) <
              n);
  if (params_.twiddles == TwiddleSource::Texture) {
    REPRO_CHECK_MSG(device_tw_ != nullptr && device_tw_->size() >= n,
                    "texture twiddles need a device table");
  }
}

sim::LaunchConfig rank_config(const RankKernelParams& p, bool rank1,
                              bool fp64) {
  const std::size_t L = p.in_shape.extent[4];
  const std::size_t items = p.in_shape.volume() / L;
  const TwiddleSource tw = rank1 ? p.twiddles : TwiddleSource::Registers;
  sim::LaunchConfig c;
  c.name = (rank1 ? "rank1_fft" : "rank2_fft") + std::to_string(L);
  c.grid_blocks = p.grid_blocks;
  c.threads_per_block = p.threads_per_block;
  c.regs_per_thread = rank_kernel_regs(tw, L, fp64);
  c.fp64 = fp64;
  c.shmem_per_block = 0;
  double per_item = fft_small_flops(L);
  if (rank1) {
    // (L-1) twiddle multiplies per item (k = 0 is unity).
    per_item += 6.0 * static_cast<double>(L - 1);
    if (tw == TwiddleSource::Recompute) {
      per_item += 32.0 * static_cast<double>(L);  // sincos per twiddle
    }
  }
  c.total_flops = static_cast<double>(items) * per_item;
  c.fma_fraction = 0.5;
  c.extra_cycles_per_thread =
      kRankAddressingCyclesPerItem *
      (static_cast<double>(items) /
       (static_cast<double>(c.grid_blocks) * c.threads_per_block));
  return c;
}

template <typename T>
sim::LaunchConfig RankKernelT<T>::config() const {
  return rank_config(params_, rank1_, std::is_same_v<T, double>);
}

template <typename T>
void RankKernelT<T>::run_block(sim::BlockCtx& ctx) {
  const auto& e = params_.in_shape.extent;
  const RankWalk walk(params_.in_shape, rank1_);
  const std::size_t L = walk.L;
  const std::size_t per_c = e[0] * e[1] * e[2];
  const int sign = fft::direction_sign(params_.dir);

  auto in = ctx.global(in_, params_.elem_offset);
  auto out = ctx.global(out_, params_.elem_offset);
  // Rank 2 reads no twiddle (and binds no device table).
  const TwiddleReader<T> twiddle(
      ctx, rank1_ ? params_.twiddles : TwiddleSource::Registers, roots_n_,
      device_tw_, sign);

  ctx.threads([&](sim::ThreadCtx& t) {
    cx<T> v[kMaxFactor];
    // Paper loop "for c,b,a,X": X innermost so half-warps stay on
    // consecutive addresses.
    for (std::size_t w = t.global_id(); w < walk.items;
         w += t.total_threads()) {
      const std::size_t load0 = walk.load_base(w);
      for (std::size_t q = 0; q < L; ++q) {
        v[q] = in.load(t, load0 + walk.load_stride * q);
      }
      fft_small(v, L, sign, roots_l_.data());

      if (rank1_) {
        // Inter-rank twiddle W_n^(c*k), c = w / (nx*na*nb).
        const std::size_t c = w / per_c;
        for (std::size_t k = 1; k < L; ++k) {
          v[k] = twiddle(t, c * k) * v[k];  // c*k < n by construction
        }
      }

      const std::size_t store0 = walk.store_base(w);
      for (std::size_t k = 0; k < L; ++k) {
        out.store(t, store0 + walk.store_stride * k, v[k]);
      }
    }
  });
}

template class RankKernelT<float>;
template class RankKernelT<double>;

// ---- Mixed-radix / Bluestein line kernels ----

MixedAxisWalk::MixedAxisWalk(Shape3 volume, std::size_t row_pitch,
                             MixedAxis pass_axis)
    : shape(volume), pitch(row_pitch), axis(pass_axis) {
  switch (axis) {
    case MixedAxis::X:
      n = shape.nx;
      lines = shape.ny * shape.nz;
      slots = lines;
      stride = 1;
      break;
    case MixedAxis::Y:
      n = shape.ny;
      lines = shape.nx * shape.nz;
      slots = pitch * shape.nz;
      stride = pitch;
      break;
    default:
      n = shape.nz;
      lines = shape.nx * shape.ny;
      slots = pitch * shape.ny;
      stride = pitch * shape.ny;
      break;
  }
}

sim::LaunchConfig mixed_axis_config(const MixedAxisWalk& walk, bool fp64,
                                    unsigned grid_blocks,
                                    unsigned threads_per_block) {
  const std::size_t n = walk.n;
  // Same routing as fft::AxisFft: 7-smooth lines run their radix schedule,
  // the rest a pair of pow2 Bluestein convolution FFTs.
  const bool blue = !fft::is_7smooth(n);
  const std::size_t conv_n = blue ? fft::bluestein_length(n) : 0;
  sim::LaunchConfig c;
  c.name = std::string(blue ? "bluestein_axis_" : "mixed_axis_") +
           mixed_axis_name(walk.axis) + std::to_string(n);
  c.grid_blocks = grid_blocks;
  c.threads_per_block = threads_per_block;
  c.fp64 = fp64;
  // Whole lines live in thread-local (spilled) storage, so the register
  // file holds loop state plus one butterfly, not the line.
  c.regs_per_thread = c.fp64 ? 64 : 32;
  const double per_line =
      blue ? 2.0 * mixed_line_flops(conv_n) +
                 6.0 * static_cast<double>(conv_n + 2 * n)
           : mixed_line_flops(n);
  c.total_flops = static_cast<double>(walk.lines) * per_line;
  c.fma_fraction = 0.5;
  const double threads = static_cast<double>(grid_blocks) * threads_per_block;
  const double iters =
      std::ceil(static_cast<double>(walk.slots) / std::max(threads, 1.0));
  const std::size_t n_stages = blue ? 2 * fft::radix_schedule(conv_n).size()
                                    : fft::radix_schedule(n).size();
  c.extra_cycles_per_thread = iters * static_cast<double>(n_stages) *
                              static_cast<double>(blue ? conv_n : n) * 4.0;
  return c;
}

template <typename T>
MixedAxisKernelT<T>::MixedAxisKernelT(DeviceBuffer<cx<T>>& data, Shape3 shape,
                                      std::size_t row_pitch, MixedAxis axis,
                                      const fft::AxisFft<T>& engine,
                                      unsigned grid_blocks,
                                      unsigned threads_per_block)
    : data_(data),
      walk_(shape, row_pitch, axis),
      engine_(engine),
      grid_(grid_blocks),
      tpb_(threads_per_block) {
  REPRO_CHECK(row_pitch >= shape.nx);
  REPRO_CHECK(data_.size() >= row_pitch * shape.ny * shape.nz);
  REPRO_CHECK(engine_.size() == walk_.n);
}

template <typename T>
sim::LaunchConfig MixedAxisKernelT<T>::config() const {
  return mixed_axis_config(walk_, std::is_same_v<T, double>, grid_, tpb_);
}

template <typename T>
void MixedAxisKernelT<T>::run_block(sim::BlockCtx& ctx) {
  auto buf = ctx.global(data_);
  const std::size_t n = walk_.n;
  const fft::MultirowLayout one_line{n, 1, 1, n};
  const std::size_t scratch_elems = engine_.scratch_elems(one_line);

  ctx.threads([&](sim::ThreadCtx& t) {
    std::vector<cx<T>> line(n);
    std::vector<cx<T>> scratch(scratch_elems);
    for (std::size_t li = t.global_id(); li < walk_.slots;
         li += t.total_threads()) {
      const std::size_t base = walk_.line_base(li);
      if (base == SIZE_MAX) continue;  // pad slot of the padded layout
      for (std::size_t p = 0; p < n; ++p) {
        line[p] = buf.load(t, base + p * walk_.stride);
      }
      engine_.run(line.data(), scratch.data(), one_line);
      for (std::size_t p = 0; p < n; ++p) {
        buf.store(t, base + p * walk_.stride, line[p]);
      }
    }
  });
}

template class MixedAxisKernelT<float>;
template class MixedAxisKernelT<double>;

}  // namespace repro::gpufft
