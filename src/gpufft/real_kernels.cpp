#include "gpufft/real_kernels.h"

#include <type_traits>

namespace repro::gpufft {

template <typename T>
RealFineKernelT<T>::RealFineKernelT(DeviceBuffer<cx<T>>& data,
                                    const RealFineParams& params,
                                    const DeviceBuffer<cx<T>>* half_twiddles,
                                    const DeviceBuffer<cx<T>>* full_twiddles)
    : data_(data),
      params_(params),
      roots_half_(make_roots<T>(params.nx / 2, params.dir)),
      roots_full_(make_roots<T>(params.nx, params.dir)),
      device_tw_half_(half_twiddles),
      device_tw_full_(full_twiddles) {
  const RealFineParams& p = params_;
  REPRO_CHECK_MSG(is_pow2(p.nx) && p.nx >= 32,
                  "the real fine kernel needs a power-of-two nx >= 32 "
                  "(half-length stages need nx/2 >= 16)");
  REPRO_CHECK_MSG(
      p.threads_per_block % fine_threads_per_transform(p.nx / 2) == 0,
      "block must hold whole transform groups");
  REPRO_CHECK(data_.size() >= (p.nx / 2 + 1) * p.count);
  if (p.twiddles == TwiddleSource::Texture) {
    REPRO_CHECK_MSG(device_tw_half_ != nullptr &&
                        device_tw_half_->size() >= p.nx / 2 &&
                        device_tw_full_ != nullptr &&
                        device_tw_full_->size() >= p.nx,
                    "texture twiddles need device tables at both lengths");
  }
}

sim::LaunchConfig real_fine_config(const RealFineParams& p, bool fp64) {
  const bool forward = p.dir == Direction::Forward;
  const std::size_t m = p.nx / 2;
  const std::size_t txs_pb =
      p.threads_per_block / fine_threads_per_transform(m);
  sim::LaunchConfig c;
  c.name = (forward ? "real_r2c" : "real_c2r") + std::to_string(p.nx);
  c.grid_blocks = p.grid_blocks;
  c.threads_per_block = p.threads_per_block;
  c.regs_per_thread = fp64 ? 24 : 12;
  c.fp64 = fp64;
  c.shmem_per_block =
      txs_pb * (2 * real_fine_sh_stride(p.nx, p.shmem_pad_words) *
                (fp64 ? sizeof(double) : sizeof(float)));
  // Unpack: one E/O recombination (~14 flops) per output bin. Pack: E/O
  // split + twiddle + scale (~18 flops) per input bin.
  double per_line = fine_flops_per_transform(m) +
                    (forward ? 14.0 * static_cast<double>(m + 1)
                             : 18.0 * static_cast<double>(m));
  if (p.twiddles == TwiddleSource::Recompute) {
    // Same sin/cos charge per twiddle as the rank kernels.
    per_line += 32.0 * real_fine_twiddle_fetches(p.nx);
  }
  c.total_flops = static_cast<double>(p.count) * per_line;
  c.fma_fraction = 0.5;
  const double groups_per_wave =
      static_cast<double>(c.grid_blocks) * static_cast<double>(txs_pb);
  const double iterations =
      std::ceil(static_cast<double>(p.count) / groups_per_wave);
  // One extra addressed pass (pack/unpack) on top of the stages.
  c.extra_cycles_per_thread =
      iterations * static_cast<double>(fine_stages(m).size() + 1) *
      kFineAddressingCyclesPerStage;
  return c;
}

template <typename T>
sim::LaunchConfig RealFineKernelT<T>::config() const {
  return real_fine_config(params_, std::is_same_v<T, double>);
}

template <typename T>
void RealFineKernelT<T>::run_block(sim::BlockCtx& ctx) {
  const std::size_t nx = params_.nx;
  const std::size_t m = nx / 2;
  const std::size_t tpt = fine_threads_per_transform(m);
  const unsigned block_dim = params_.threads_per_block;
  const std::size_t txs_pb = block_dim / tpt;
  const std::size_t pad = params_.shmem_pad_words;
  const std::size_t arr = real_fine_sh_stride(nx, pad);
  const std::size_t nyq = m * params_.count;  // Nyquist tail plane base
  const int sign = fft::direction_sign(params_.dir);
  const auto sts = fine_stages(m);
  const T scale = static_cast<T>(params_.scale);

  auto data = ctx.global(data_);
  auto sh_re = ctx.shared<T>(0, txs_pb * arr);
  auto sh_im = ctx.shared<T>(txs_pb * arr * sizeof(T), txs_pb * arr);
  const TwiddleReader<T> tw_half(ctx, params_.twiddles, roots_half_,
                                 device_tw_half_, sign);
  const TwiddleReader<T> tw_full(ctx, params_.twiddles, roots_full_,
                                 device_tw_full_, sign);

  std::vector<cx<T>> vals(static_cast<std::size_t>(block_dim) * 4);
  std::vector<T> tmp(static_cast<std::size_t>(block_dim) * 4);

  const std::size_t groups_per_wave =
      static_cast<std::size_t>(params_.grid_blocks) * txs_pb;
  for (std::size_t base = static_cast<std::size_t>(ctx.block_index()) * txs_pb;
       base < params_.count;
       base += groups_per_wave) {
    if (params_.dir == Direction::Forward) {
      // Half-length transform of the packed row; the natural-order
      // spectrum Z lands in the shared arrays (the final stage no longer
      // reads the exchange window, so the store may overwrite it).
      run_fine_stages<T>(
          ctx, sts, m, sign, sh_re, arr, pad, base, params_.count,
          vals.data(), tmp.data(), tw_half,
          [&](sim::ThreadCtx& t, std::size_t tx, std::size_t pos) {
            return data.load(t, tx * m + pos);
          },
          [&](sim::ThreadCtx& t, std::size_t /*tx*/, std::size_t pos,
              const cx<T>& v) {
            const std::size_t shb = (t.tid / tpt) * arr;
            sh_re.store(t, shb + shmem_pad(pos, pad), v.re);
            sh_im.store(t, shb + shmem_pad(pos, pad), v.im);
          });

      // Hermitian unpack: X[k] = E[k] + w_nx^k * O[k] (fft/real.*
      // algebra), local to the row because X runs first in the real plan.
      ctx.threads([&](sim::ThreadCtx& t) {
        const std::size_t sub = t.tid / tpt;
        const std::size_t lane = t.tid % tpt;
        const std::size_t tx = base + sub;
        if (tx >= params_.count) return;
        const std::size_t shb = sub * arr;
        for (std::size_t k = lane; k <= m; k += tpt) {
          const std::size_t ki = shmem_pad(k % m, pad);
          const std::size_t mi = shmem_pad((m - k) % m, pad);
          const cx<T> zk{sh_re.load(t, shb + ki), sh_im.load(t, shb + ki)};
          const cx<T> zmk =
              cx<T>{sh_re.load(t, shb + mi), sh_im.load(t, shb + mi)}.conj();
          const cx<T> e = (zk + zmk) * static_cast<T>(0.5);
          const cx<T> o = ((zk - zmk) * static_cast<T>(0.5)).mul_neg_i();
          // w_nx^m = -1 exactly; avoid table rounding at the Nyquist bin.
          // Bins [0, m) keep the power-of-two pitch; bin m goes to the
          // row's slot in the Nyquist tail plane (split layout).
          const cx<T> x = k == m ? e - o : e + tw_full(t, k) * o;
          data.store(t, k == m ? nyq + tx : tx * m + k, x);
        }
      });
    } else {
      // Stage the half-spectrum bins X[0..m] into shared so the Hermitian
      // pack (which pairs bin k with bin m-k) stays on-chip.
      ctx.threads([&](sim::ThreadCtx& t) {
        const std::size_t sub = t.tid / tpt;
        const std::size_t lane = t.tid % tpt;
        const std::size_t tx = base + sub;
        if (tx >= params_.count) return;
        const std::size_t shb = sub * arr;
        for (std::size_t k = lane; k <= m; k += tpt) {
          const cx<T> v = data.load(t, k == m ? nyq + tx : tx * m + k);
          sh_re.store(t, shb + shmem_pad(k, pad), v.re);
          sh_im.store(t, shb + shmem_pad(k, pad), v.im);
        }
      });

      // Pack fused into stage-0 loads: Z[k] = E[k] + i*O[k] with inverse
      // roots (fft/real.* algebra), then the half-length inverse transform
      // writes the packed real row back in natural order.
      run_fine_stages<T>(
          ctx, sts, m, sign, sh_re, arr, pad, base, params_.count,
          vals.data(), tmp.data(), tw_half,
          [&](sim::ThreadCtx& t, std::size_t /*tx*/, std::size_t pos) {
            const std::size_t shb = (t.tid / tpt) * arr;
            const std::size_t ki = shmem_pad(pos, pad);
            const std::size_t mi = shmem_pad(m - pos, pad);
            const cx<T> xk{sh_re.load(t, shb + ki), sh_im.load(t, shb + ki)};
            const cx<T> xmk =
                cx<T>{sh_re.load(t, shb + mi), sh_im.load(t, shb + mi)}
                    .conj();
            const cx<T> e = (xk + xmk) * static_cast<T>(0.5);
            const cx<T> o =
                tw_full(t, pos) * ((xk - xmk) * static_cast<T>(0.5));
            return (e + o.mul_i()) * scale;
          },
          [&](sim::ThreadCtx& t, std::size_t tx, std::size_t pos,
              const cx<T>& v) { data.store(t, tx * m + pos, v); });

      // Zero the row's Nyquist tail slot so the packed output is fully
      // deterministic (and sharded/single-device buffers compare
      // bit-identically).
      ctx.threads([&](sim::ThreadCtx& t) {
        const std::size_t sub = t.tid / tpt;
        const std::size_t lane = t.tid % tpt;
        const std::size_t tx = base + sub;
        if (tx >= params_.count || lane != 0) return;
        data.store(t, nyq + tx, cx<T>{});
      });
    }
  }
}

template class RealFineKernelT<float>;
template class RealFineKernelT<double>;

}  // namespace repro::gpufft
