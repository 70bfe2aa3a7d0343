#include "gpufft/conventional3d.h"

#include "gpufft/cache.h"

namespace repro::gpufft {

TransposeKernel::TransposeKernel(DeviceBuffer<cxf>& in, DeviceBuffer<cxf>& out,
                                 Shape3 in_shape, unsigned grid_blocks,
                                 unsigned threads_per_block)
    : in_(in),
      out_(out),
      shape_(in_shape),
      grid_(grid_blocks),
      threads_(threads_per_block) {
  REPRO_CHECK(in_.size() >= shape_.volume());
  REPRO_CHECK(out_.size() >= shape_.volume());
}

sim::LaunchConfig TransposeKernel::config() const {
  sim::LaunchConfig c;
  c.name = "transpose";
  c.grid_blocks = grid_;
  c.threads_per_block = threads_;
  c.regs_per_thread = 12;
  c.total_flops = 0.0;
  return c;
}

void TransposeKernel::run_block(sim::BlockCtx& ctx) {
  const auto [n0, n1, n2] = shape_;
  const std::size_t volume = shape_.volume();
  auto in = ctx.global(in_);
  auto out = ctx.global(out_);
  ctx.threads([&](sim::ThreadCtx& t) {
    for (std::size_t w = t.global_id(); w < volume;
         w += t.total_threads()) {
      const std::size_t a = w % n0;
      const std::size_t b = (w / n0) % n1;
      const std::size_t c = w / (n0 * n1);
      out.store(t, c + n2 * (a + n0 * b), in.load(t, w));
    }
  });
}

TiledTransposeKernel::TiledTransposeKernel(DeviceBuffer<cxf>& in,
                                           DeviceBuffer<cxf>& out,
                                           Shape3 in_shape,
                                           unsigned grid_blocks)
    : in_(in), out_(out), shape_(in_shape), grid_(grid_blocks) {
  REPRO_CHECK(in_.size() >= shape_.volume());
  REPRO_CHECK(out_.size() >= shape_.volume());
  REPRO_CHECK_MSG(shape_.nx % kTile == 0 && shape_.nz % kTile == 0,
                  "tiled transpose needs extents divisible by the tile");
}

sim::LaunchConfig TiledTransposeKernel::config() const {
  sim::LaunchConfig c;
  c.name = "transpose_tiled";
  c.grid_blocks = grid_;
  c.threads_per_block = kDefaultThreadsPerBlock;
  c.regs_per_thread = 14;
  // One 16x17 tile of complex values (padded column kills bank conflicts).
  c.shmem_per_block = kTile * (kTile + 1) * sizeof(cxf);
  c.total_flops = 0.0;
  const double tiles =
      static_cast<double>(shape_.volume()) / (kTile * kTile);
  c.extra_cycles_per_thread =
      10.0 * tiles / (static_cast<double>(grid_) * c.threads_per_block);
  return c;
}

void TiledTransposeKernel::run_block(sim::BlockCtx& ctx) {
  // in(n0, n1, n2) -> out(n2, n0, n1); the transposed pair is (a, c) with
  // b carried along, so tiles cover a 16x16 (a, c) patch per b slice.
  const auto [n0, n1, n2] = shape_;
  const std::size_t tiles_a = n0 / kTile;
  const std::size_t tiles_c = n2 / kTile;
  const std::size_t n_tiles = tiles_a * tiles_c * n1;
  auto in = ctx.global(in_);
  auto out = ctx.global(out_);
  auto tile = ctx.shared<cxf>(0, kTile * (kTile + 1));

  for (std::size_t tidx = ctx.block_index(); tidx < n_tiles;
       tidx += ctx.config().grid_blocks) {
    const std::size_t ta = tidx % tiles_a;
    const std::size_t b = (tidx / tiles_a) % n1;
    const std::size_t tc = tidx / (tiles_a * n1);
    const std::size_t a0 = ta * kTile;
    const std::size_t c0 = tc * kTile;

    // Load: lanes sweep a (coalesced); tile[i][j] = in(a0+j, b, c0+i).
    ctx.threads([&](sim::ThreadCtx& t) {
      const std::size_t lane = t.tid % kTile;
      const std::size_t rg = t.tid / kTile;  // 4 row groups of 4 rows
      for (std::size_t s = 0; s < kTile / 4; ++s) {
        const std::size_t i = rg + 4 * s;
        tile.store(t, i * (kTile + 1) + lane,
                   in.load(t, (a0 + lane) + n0 * (b + n1 * (c0 + i))));
      }
    });
    // Store: lanes sweep c (coalesced); reads walk a padded tile column.
    ctx.threads([&](sim::ThreadCtx& t) {
      const std::size_t lane = t.tid % kTile;
      const std::size_t rg = t.tid / kTile;
      for (std::size_t s = 0; s < kTile / 4; ++s) {
        const std::size_t j = rg + 4 * s;
        out.store(t, (c0 + lane) + n2 * ((a0 + j) + n0 * b),
                  tile.load(t, lane * (kTile + 1) + j));
      }
    });
  }
}

ConventionalFft3D::ConventionalFft3D(Device& dev, Shape3 shape, Direction dir,
                                     TuneConfig tune,
                                     TransposeStrategy transpose)
    : FftPlanT<float>(dev, PlanDesc::conventional3d(shape, dir, transpose),
                      tune),
      tw_x_(ResourceCache::of(dev).twiddles<float>(shape.nx, dir)),
      tw_y_(ResourceCache::of(dev).twiddles<float>(shape.ny, dir)),
      tw_z_(ResourceCache::of(dev).twiddles<float>(shape.nz, dir)) {}

std::vector<StepTiming> ConventionalFft3D::execute_impl(DeviceBuffer<cxf>& data) {
  const Shape3 shape = desc_.shape;
  const TuneConfig& tune = desc_.tune;
  const unsigned grid = tune.grid_for(dev_.spec());
  REPRO_CHECK(data.size() >= shape.volume());
  auto ws = ResourceCache::of(dev_).lease<float>(shape.volume());
  auto& work = ws.buffer();
  const auto [nx, ny, nz] = shape;
  std::vector<StepTiming> steps;
  auto record = [&](const char* name, const LaunchResult& r) {
    steps.push_back(step_row<float>(name, r.total_ms, shape.volume()));
  };

  auto fft_lines = [&](DeviceBuffer<cxf>& in, DeviceBuffer<cxf>& out,
                       std::size_t n, const DeviceBuffer<cxf>& tw,
                       const char* name) {
    auto p = FineKernelParams::tuned(tune, dev_.spec(), n,
                                     shape.volume() / n, desc_.dir);
    // The baseline reads its twiddles through texture whatever the tuned
    // fine source; only the grid, block size and pad follow the config.
    p.twiddles = TwiddleSource::Texture;
    FineFftKernel k(in, out, p, &tw);
    record(name, dev_.launch(k));
  };
  auto transpose = [&](DeviceBuffer<cxf>& in, DeviceBuffer<cxf>& out,
                       Shape3 s, const char* name) {
    if (desc_.transpose == TransposeStrategy::Tiled) {
      // The tiled kernel's 16x16 tiles hard-require 64-thread blocks.
      TiledTransposeKernel k(in, out, s, grid);
      record(name, dev_.launch(k));
    } else {
      TransposeKernel k(in, out, s, grid, tune.threads_per_block);
      record(name, dev_.launch(k));
    }
  };

  // data starts as (x,y,z); ping-pong with the work buffer so the result
  // lands back in `data` after step 6.
  fft_lines(data, work, nx, *tw_x_, "step1 (FFT X)");
  transpose(work, data, Shape3{nx, ny, nz}, "step2 (transpose->zxy)");
  fft_lines(data, work, nz, *tw_z_, "step3 (FFT Z)");
  transpose(work, data, Shape3{nz, nx, ny}, "step4 (transpose->yzx)");
  fft_lines(data, work, ny, *tw_y_, "step5 (FFT Y)");
  transpose(work, data, Shape3{ny, nz, nx}, "step6 (transpose->xyz)");

  finish(steps);
  return steps;
}

}  // namespace repro::gpufft
