#include "gpufft/copy_kernels.h"

#include "fft/stockham.h"
#include "gpufft/rank_kernels.h"

namespace repro::gpufft {

PatternCopyKernel::PatternCopyKernel(DeviceBuffer<cxf>& in,
                                     DeviceBuffer<cxf>& out, Pattern in_pattern,
                                     Pattern out_pattern, unsigned grid_blocks,
                                     unsigned threads_per_block)
    : in_(in),
      out_(out),
      in_p_(in_pattern),
      out_p_(out_pattern),
      grid_(grid_blocks),
      threads_(threads_per_block) {
  REPRO_CHECK(in_.size() >= pattern_shape().volume());
  REPRO_CHECK(out_.size() >= pattern_shape().volume());
}

sim::LaunchConfig PatternCopyKernel::config() const {
  sim::LaunchConfig c;
  c.name = std::string("copy_") + pattern_name(in_p_) + "_to_" +
           pattern_name(out_p_);
  c.grid_blocks = grid_;
  c.threads_per_block = threads_;
  c.regs_per_thread = 34;  // 16 complex values in flight
  c.total_flops = 0.0;
  c.extra_cycles_per_thread = 0.0;
  return c;
}

void PatternCopyKernel::run_block(sim::BlockCtx& ctx) {
  // Pattern p puts the digit at dim p (A = 1 ... D = 4).
  const RankWalk walk(pattern_shape(), static_cast<std::size_t>(in_p_),
                      static_cast<std::size_t>(out_p_));
  auto in = ctx.global(in_);
  auto out = ctx.global(out_);

  ctx.threads([&](sim::ThreadCtx& t) {
    cxf v[16];
    for (std::size_t w = t.global_id(); w < walk.items;
         w += t.total_threads()) {
      const std::size_t load0 = walk.load_base(w);
      for (std::size_t q = 0; q < 16; ++q) {
        v[q] = in.load(t, load0 + walk.load_stride * q);
      }
      const std::size_t store0 = walk.store_base(w);
      for (std::size_t q = 0; q < 16; ++q) {
        out.store(t, store0 + walk.store_stride * q, v[q]);
      }
    }
  });
}

MultiStreamCopyKernel::MultiStreamCopyKernel(DeviceBuffer<cxf>& in,
                                             DeviceBuffer<cxf>& out,
                                             std::size_t streams,
                                             unsigned grid_blocks,
                                             unsigned threads_per_block)
    : in_(in),
      out_(out),
      streams_(streams),
      grid_(grid_blocks),
      threads_(threads_per_block) {
  REPRO_CHECK(streams_ >= 1);
  REPRO_CHECK(in_.size() % streams_ == 0);
  REPRO_CHECK(out_.size() >= in_.size());
}

sim::LaunchConfig MultiStreamCopyKernel::config() const {
  sim::LaunchConfig c;
  c.name = "copy_" + std::to_string(streams_) + "_streams";
  c.grid_blocks = grid_;
  c.threads_per_block = threads_;
  // Stream base pointers and loop state grow with the stream count — the
  // register pressure the paper calls out in Section 2.1.
  c.regs_per_thread =
      static_cast<int>(std::min<std::size_t>(12 + streams_ / 4, 120));
  c.total_flops = 0.0;
  return c;
}

void MultiStreamCopyKernel::run_block(sim::BlockCtx& ctx) {
  const std::size_t len = in_.size() / streams_;
  auto in = ctx.global(in_);
  auto out = ctx.global(out_);
  ctx.threads([&](sim::ThreadCtx& t) {
    for (std::size_t x = t.global_id(); x < len; x += t.total_threads()) {
      for (std::size_t s = 0; s < streams_; ++s) {
        out.store(t, s * len + x, in.load(t, s * len + x));
      }
    }
  });
}

Multirow256Kernel::Multirow256Kernel(DeviceBuffer<cxf>& in,
                                     DeviceBuffer<cxf>& out, std::size_t rows,
                                     Direction dir)
    : in_(in),
      out_(out),
      rows_(rows),
      dir_(dir),
      roots_(make_roots<float>(256, dir)),
      table_(256, dir) {
  REPRO_CHECK(in_.size() >= rows_ * 256);
  REPRO_CHECK(out_.size() >= rows_ * 256);
}

sim::LaunchConfig Multirow256Kernel::config() const {
  sim::LaunchConfig c;
  c.name = "multirow256";
  // Section 3.1: "more than 512+alpha registers resulting in allocation of
  // 1024 registers per thread. As a result, only eight threads can be
  // executed on each SM."
  c.grid_blocks = 16;
  c.threads_per_block = 8;
  c.regs_per_thread = 1024;
  c.total_flops = static_cast<double>(rows_) * 5.0 * 256.0 * 8.0;
  c.fma_fraction = 0.5;
  return c;
}

void Multirow256Kernel::run_block(sim::BlockCtx& ctx) {
  auto in = ctx.global(in_);
  auto out = ctx.global(out_);
  ctx.threads([&](sim::ThreadCtx& t) {
    cxf line[256];
    cxf scratch[256];
    for (std::size_t r = t.global_id(); r < rows_; r += t.total_threads()) {
      for (std::size_t p = 0; p < 256; ++p) {
        line[p] = in.load(t, r + rows_ * p);
      }
      fft::stockham_multirow<float>(line, scratch,
                                    fft::MultirowLayout{256, 1, 1, 1},
                                    table_);
      for (std::size_t p = 0; p < 256; ++p) {
        out.store(t, r + rows_ * p, line[p]);
      }
    }
  });
}

}  // namespace repro::gpufft
