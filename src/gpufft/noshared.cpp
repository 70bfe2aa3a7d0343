#include "gpufft/noshared.h"

#include "gpufft/fine_kernel.h"

namespace repro::gpufft {

XAxisPassAKernel::XAxisPassAKernel(DeviceBuffer<cxf>& in,
                                   DeviceBuffer<cxf>& out, std::size_t n,
                                   std::size_t count, Direction dir,
                                   unsigned grid_blocks)
    : in_(in),
      out_(out),
      n_(n),
      count_(count),
      dir_(dir),
      split_(split_axis(n)),
      roots_f2_(make_roots<float>(split_.f2, dir)),
      roots_n_(make_roots<float>(n, dir)),
      grid_(grid_blocks) {
  REPRO_CHECK(in_.size() >= n_ * count_);
  REPRO_CHECK(out_.size() >= n_ * count_);
}

sim::LaunchConfig XAxisPassAKernel::config() const {
  const std::size_t items = count_ * split_.f1;
  sim::LaunchConfig c;
  c.name = "xaxis_passA";
  c.grid_blocks = grid_;
  c.threads_per_block = kDefaultThreadsPerBlock;
  c.regs_per_thread = 52;
  c.total_flops =
      static_cast<double>(items) *
      (fft_small_flops(split_.f2) + 6.0 * static_cast<double>(split_.f2 - 1));
  c.fma_fraction = 0.5;
  c.extra_cycles_per_thread =
      48.0 * static_cast<double>(items) /
      (static_cast<double>(grid_) * c.threads_per_block);
  return c;
}

void XAxisPassAKernel::run_block(sim::BlockCtx& ctx) {
  const auto [f1, f2] = split_;
  const std::size_t items = count_ * f1;  // one 16-point FFT per item
  const int sign = fft::direction_sign(dir_);
  auto in = ctx.global(in_);
  auto out = ctx.global(out_);

  ctx.threads([&](sim::ThreadCtx& t) {
    cxf v[kMaxFactor];
    for (std::size_t w = t.global_id(); w < items; w += t.total_threads()) {
      // X1 innermost so half-warp lanes read consecutive addresses.
      const std::size_t x1 = w % f1;
      const std::size_t line = w / f1;
      const std::size_t base = line * n_;
      for (std::size_t q = 0; q < f2; ++q) {
        v[q] = in.load(t, base + x1 + f1 * q);
      }
      fft_small(v, f2, sign, roots_f2_.data());
      for (std::size_t k = 1; k < f2; ++k) {
        v[k] = roots_n_[x1 * k] * v[k];
      }
      // Keep the (X1, K2) layout: writes stay coalesced.
      for (std::size_t k = 0; k < f2; ++k) {
        out.store(t, base + x1 + f1 * k, v[k]);
      }
    }
  });
}

XAxisPassBKernel::XAxisPassBKernel(DeviceBuffer<cxf>& in,
                                   DeviceBuffer<cxf>& out, std::size_t n,
                                   std::size_t count, Direction dir,
                                   ExchangeMode mode, unsigned grid_blocks)
    : in_(in),
      out_(out),
      n_(n),
      count_(count),
      dir_(dir),
      mode_(mode),
      split_(split_axis(n)),
      roots_f1_(make_roots<float>(split_.f1, dir)),
      grid_(grid_blocks) {
  REPRO_CHECK(mode_ != ExchangeMode::SharedMemory);
  REPRO_CHECK(in_.size() >= n_ * count_);
  REPRO_CHECK(out_.size() >= n_ * count_);
}

sim::LaunchConfig XAxisPassBKernel::config() const {
  const std::size_t items = count_ * split_.f2;
  sim::LaunchConfig c;
  c.name = mode_ == ExchangeMode::TextureMemory ? "xaxis_passB_tex"
                                                : "xaxis_passB_noncoalesced";
  c.grid_blocks = grid_;
  c.threads_per_block = kDefaultThreadsPerBlock;
  c.regs_per_thread = 48;
  c.total_flops =
      static_cast<double>(items) * fft_small_flops(split_.f1);
  c.fma_fraction = 0.5;
  c.extra_cycles_per_thread =
      48.0 * static_cast<double>(items) /
      (static_cast<double>(grid_) * c.threads_per_block);
  return c;
}

void XAxisPassBKernel::run_block(sim::BlockCtx& ctx) {
  const auto [f1, f2] = split_;
  const std::size_t items = count_ * f2;
  const int sign = fft::direction_sign(dir_);
  auto in = ctx.global(in_);
  auto tex = ctx.texture(in_);
  auto out = ctx.global(out_);

  ctx.threads([&](sim::ThreadCtx& t) {
    cxf v[kMaxFactor];
    for (std::size_t w = t.global_id(); w < items; w += t.total_threads()) {
      // K2 innermost: lanes sit f1 elements apart — the gather that cannot
      // coalesce.
      const std::size_t k2 = w % f2;
      const std::size_t line = w / f2;
      const std::size_t base = line * n_;
      for (std::size_t x1 = 0; x1 < f1; ++x1) {
        const std::size_t idx = base + x1 + f1 * k2;
        v[x1] = mode_ == ExchangeMode::TextureMemory ? tex.fetch(t, idx)
                                                     : in.load(t, idx);
      }
      fft_small(v, f1, sign, roots_f1_.data());
      // Natural-order output k = k2 + f2*k1: lanes (k2) are consecutive.
      for (std::size_t k1 = 0; k1 < f1; ++k1) {
        out.store(t, base + k2 + f2 * k1, v[k1]);
      }
    }
  });
}

XAxisAblationResult run_x_axis_variant(Device& dev, DeviceBuffer<cxf>& data,
                                       std::size_t n, std::size_t count,
                                       Direction dir, ExchangeMode mode) {
  XAxisAblationResult result;
  result.mode = mode;
  const unsigned grid = default_grid_blocks(dev.spec());
  auto record = [&](const char* name, const LaunchResult& r) {
    result.steps.push_back(step_row<float>(name, r.total_ms, n * count));
  };

  if (mode == ExchangeMode::SharedMemory) {
    auto tw = dev.alloc<cxf>(n);
    const auto roots = make_roots<float>(n, dir);
    dev.h2d(tw, std::span<const cxf>(roots));
    // The paper's Table 2 launch, texture twiddles included.
    FineFftKernel k(data, data,
                    FineKernelParams::tuned(TuneConfig{}, dev.spec(), n,
                                            count, dir),
                    &tw);
    record("X shared-memory", dev.launch(k));
  } else {
    auto scratch = dev.alloc<cxf>(n * count);
    XAxisPassAKernel a(data, scratch, n, count, dir, grid);
    record("X pass A (16-pt, coalesced)", dev.launch(a));
    XAxisPassBKernel b(scratch, data, n, count, dir, mode, grid);
    record(mode == ExchangeMode::TextureMemory
               ? "X pass B (16-pt, texture gather)"
               : "X pass B (16-pt, non-coalesced gather)",
           dev.launch(b));
  }
  for (const auto& s : result.steps) result.total_ms += s.ms;
  return result;
}

}  // namespace repro::gpufft
