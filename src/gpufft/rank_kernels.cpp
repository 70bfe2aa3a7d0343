#include "gpufft/rank_kernels.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>

#include "fft/bluestein.h"
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

template <typename T>
MixedAxisTablesT<T> MixedAxisTablesT<T>::make(std::size_t n, Direction dir) {
  MixedAxisTablesT<T> tb;
  tb.n = n;
  if (n <= 1) return tb;
  if (fft::is_7smooth(n)) {
    tb.stages = fft::radix_schedule(n);
    tb.roots = make_roots<T>(n, dir);
    return tb;
  }
  // Lift the host Bluestein engine's tables verbatim: same chirp, same
  // pre-scaled kernel spectrum, same pow2 convolution roots — the device
  // convolution then reproduces the host fallback bit-for-bit.
  const fft::Bluestein<T> blue(n, dir);
  tb.conv_n = blue.conv_size();
  tb.conv_stages = fft::radix_schedule(tb.conv_n);
  tb.chirp.assign(blue.chirp().begin(), blue.chirp().end());
  tb.kernel_fft.assign(blue.kernel_fft().begin(), blue.kernel_fft().end());
  tb.conv_fwd = make_roots<T>(tb.conv_n, Direction::Forward);
  tb.conv_inv = make_roots<T>(tb.conv_n, Direction::Inverse);
  return tb;
}

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
  // Same routing as MixedAxisTablesT::make: 7-smooth lines run their radix
  // schedule, the rest a pair of pow2 Bluestein convolution FFTs.
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
                                      const MixedAxisTablesT<T>& tables,
                                      Direction dir, unsigned grid_blocks,
                                      unsigned threads_per_block)
    : data_(data),
      walk_(shape, row_pitch, axis),
      tables_(tables),
      dir_(dir),
      grid_(grid_blocks),
      tpb_(threads_per_block) {
  REPRO_CHECK(row_pitch >= shape.nx);
  REPRO_CHECK(data_.size() >= row_pitch * shape.ny * shape.nz);
  REPRO_CHECK(tables_.n == walk_.n);
}

template <typename T>
sim::LaunchConfig MixedAxisKernelT<T>::config() const {
  return mixed_axis_config(walk_, std::is_same_v<T, double>, grid_, tpb_);
}

template <typename T>
void MixedAxisKernelT<T>::run_block(sim::BlockCtx& ctx) {
  auto buf = ctx.global(data_);
  const MixedAxisTablesT<T>& tb = tables_;
  const std::size_t n = tb.n;
  const std::size_t work = tb.line_elems();
  const int sign = fft::direction_sign(dir_);
  // The Bluestein convolution runs a fixed Forward/Inverse pair whatever
  // the user direction (the chirp carries the sign) — as on the host.
  const int fwd_sign = fft::direction_sign(Direction::Forward);
  const int inv_sign = fft::direction_sign(Direction::Inverse);

  ctx.threads([&](sim::ThreadCtx& t) {
    std::vector<cx<T>> u(work);
    std::vector<cx<T>> v(work);
    for (std::size_t li = t.global_id(); li < walk_.slots;
         li += t.total_threads()) {
      const std::size_t base = walk_.line_base(li);
      if (base == SIZE_MAX) continue;  // pad slot of the padded layout
      if (!tb.bluestein()) {
        for (std::size_t p = 0; p < n; ++p) {
          u[p] = buf.load(t, base + p * walk_.stride);
        }
        cx<T>* res =
            run_mixed_line<T>(tb.stages, u.data(), v.data(), tb.roots, sign);
        for (std::size_t p = 0; p < n; ++p) {
          buf.store(t, base + p * walk_.stride, res[p]);
        }
      } else {
        // Chirp-premultiply into the zero-padded convolution line.
        for (std::size_t j = 0; j < n; ++j) {
          u[j] = buf.load(t, base + j * walk_.stride) * tb.chirp[j];
        }
        for (std::size_t j = n; j < work; ++j) u[j] = cx<T>{0, 0};
        cx<T>* res = run_mixed_line<T>(tb.conv_stages, u.data(), v.data(),
                                       tb.conv_fwd, fwd_sign);
        for (std::size_t i = 0; i < work; ++i) {
          res[i] = res[i] * tb.kernel_fft[i];
        }
        cx<T>* other = res == u.data() ? v.data() : u.data();
        res = run_mixed_line<T>(tb.conv_stages, res, other, tb.conv_inv,
                                inv_sign);
        for (std::size_t k = 0; k < n; ++k) {
          buf.store(t, base + k * walk_.stride, res[k] * tb.chirp[k]);
        }
      }
    }
  });
}

template struct MixedAxisTablesT<float>;
template struct MixedAxisTablesT<double>;
template class MixedAxisKernelT<float>;
template class MixedAxisKernelT<double>;

}  // namespace repro::gpufft
