#include "gpufft/fine_kernel.h"

#include <type_traits>

namespace repro::gpufft {

template <typename T>
FineFftKernelT<T>::FineFftKernelT(DeviceBuffer<cx<T>>& in,
                                  DeviceBuffer<cx<T>>& out,
                                  const FineKernelParams& params,
                                  const DeviceBuffer<cx<T>>* device_twiddles)
    : in_(in),
      out_(out),
      params_(params),
      roots_n_(make_roots<T>(params.n, params.dir)),
      device_tw_(device_twiddles) {
  REPRO_CHECK_MSG(is_pow2(params_.n) && params_.n >= 16,
                  "the fine X-axis kernel runs radix-4/2 stages over "
                  "power-of-two lengths in [16, 512]; got n=" +
                      fft::describe_size(params_.n) +
                      " — route non-pow2 X axes through the Mixed3D plan's "
                      "MixedAxisKernelT (rank_kernels.h)");
  REPRO_CHECK_MSG(
      params_.threads_per_block % fine_threads_per_transform(params_.n) == 0,
      "block must hold whole transform groups");
  REPRO_CHECK(in_.size() >= params_.n * params_.count);
  REPRO_CHECK(out_.size() >= params_.n * params_.count);
  if (params_.twiddles == TwiddleSource::Texture) {
    REPRO_CHECK_MSG(device_tw_ != nullptr && device_tw_->size() >= params_.n,
                    "texture twiddles need a device table");
  }
}

sim::LaunchConfig fine_config(const FineKernelParams& p, bool fp64) {
  const std::size_t txs_pb =
      p.threads_per_block / fine_threads_per_transform(p.n);
  sim::LaunchConfig c;
  c.name = "fine_fft" + std::to_string(p.n);
  c.grid_blocks = p.grid_blocks;
  c.threads_per_block = p.threads_per_block;
  c.regs_per_thread = fp64 ? 20 : 10;  // 4 complex values + temps
  c.fp64 = fp64;
  c.shmem_per_block = txs_pb *
                      fine_min_sh_stride(p.n, p.shmem_pad_words) *
                      (fp64 ? sizeof(double) : sizeof(float));
  double per_tx = fine_flops_per_transform(p.n);
  if (p.twiddles == TwiddleSource::Recompute) {
    // sin/cos per fetched twiddle, same charge as the rank kernels — a
    // recomputing config must not look free to the cost model.
    per_tx += 32.0 * fine_twiddle_fetches(p.n);
  }
  c.total_flops = static_cast<double>(p.count) * per_tx;
  c.fma_fraction = 0.5;
  const double groups_per_wave =
      static_cast<double>(c.grid_blocks) * static_cast<double>(txs_pb);
  const double iterations =
      std::ceil(static_cast<double>(p.count) / groups_per_wave);
  c.extra_cycles_per_thread =
      iterations * static_cast<double>(fine_stages(p.n).size()) *
      kFineAddressingCyclesPerStage;
  return c;
}

template <typename T>
sim::LaunchConfig FineFftKernelT<T>::config() const {
  return fine_config(params_, std::is_same_v<T, double>);
}

template <typename T>
void FineFftKernelT<T>::run_block(sim::BlockCtx& ctx) {
  const std::size_t n = params_.n;
  const std::size_t tpt = fine_threads_per_transform(n);
  const unsigned block_dim = params_.threads_per_block;
  const std::size_t txs_pb = block_dim / tpt;
  const std::size_t pad = params_.shmem_pad_words;
  const std::size_t sh_per_tx = fine_min_sh_stride(n, pad);
  const int sign = fft::direction_sign(params_.dir);
  const auto sts = fine_stages(n);

  auto in = ctx.global(in_);
  auto out = ctx.global(out_);
  auto sh = ctx.shared<T>(0, txs_pb * sh_per_tx);
  const TwiddleReader<T> twiddle(ctx, params_.twiddles, roots_n_, device_tw_,
                                 sign);

  // Emulated per-thread registers persisting across barrier phases.
  std::vector<cx<T>> vals(static_cast<std::size_t>(block_dim) * 4);
  std::vector<T> tmp(static_cast<std::size_t>(block_dim) * 4);

  const std::size_t groups_per_wave =
      static_cast<std::size_t>(params_.grid_blocks) * txs_pb;
  for (std::size_t base = static_cast<std::size_t>(ctx.block_index()) * txs_pb;
       base < params_.count;
       base += groups_per_wave) {
    run_fine_stages<T>(
        ctx, sts, n, sign, sh, sh_per_tx, pad, base, params_.count,
        vals.data(), tmp.data(), twiddle,
        [&](sim::ThreadCtx& t, std::size_t tx, std::size_t pos) {
          return in.load(t, tx * n + pos);
        },
        [&](sim::ThreadCtx& t, std::size_t tx, std::size_t pos,
            const cx<T>& v) { out.store(t, tx * n + pos, v); });
  }
}

template class FineFftKernelT<float>;
template class FineFftKernelT<double>;

}  // namespace repro::gpufft
