#include "gpufft/naive.h"

#include <cmath>

#include "fft/factor.h"
#include "gpufft/cache.h"

namespace repro::gpufft {

Naive1DFftKernel::Naive1DFftKernel(DeviceBuffer<cxf>& in,
                                   DeviceBuffer<cxf>& out, std::size_t n,
                                   std::size_t count, Direction dir,
                                   unsigned grid_blocks)
    : in_(in),
      out_(out),
      n_(n),
      count_(count),
      dir_(dir),
      roots_(make_roots<float>(n, dir)),
      grid_(grid_blocks) {
  REPRO_CHECK_MSG(is_pow2(n_) && n_ >= 8,
                  "the naive baseline ladders radix-2 stages, so it needs a "
                  "power-of-two n >= 8; got n=" + fft::describe_size(n_) +
                      " — arbitrary sizes go through the Mixed3D plan");
  REPRO_CHECK(in_.size() >= n_ * count_);
  REPRO_CHECK(out_.size() >= n_ * count_);
}

sim::LaunchConfig Naive1DFftKernel::config() const {
  const auto lg = static_cast<double>(log2_exact(n_));
  sim::LaunchConfig c;
  c.name = "naive1d_fft" + std::to_string(n_);
  c.grid_blocks = grid_;
  c.threads_per_block = static_cast<unsigned>(n_ / 2);
  c.regs_per_thread = 16;
  c.shmem_per_block = n_ * sizeof(cxf);  // unpadded complex exchange
  c.total_flops =
      static_cast<double>(count_) * (static_cast<double>(n_) / 2.0) * lg *
      10.0;
  c.fma_fraction = 0.4;
  const double iterations = std::ceil(static_cast<double>(count_) /
                                      static_cast<double>(c.grid_blocks));
  c.extra_cycles_per_thread = iterations * lg * 12.0;
  return c;
}

void Naive1DFftKernel::run_block(sim::BlockCtx& ctx) {
  const std::size_t n = n_;
  const std::size_t tpt = n / 2;
  const unsigned stages = log2_exact(n);

  auto in = ctx.global(in_);
  auto out = ctx.global(out_);
  auto sh = ctx.shared<cxf>(0, n);
  auto tw = ctx.constant(roots_);

  std::vector<cxf> vals(tpt * 2);

  for (std::size_t tx = ctx.block_index(); tx < count_;
       tx += ctx.config().grid_blocks) {
    const std::size_t gbase = tx * n;
    for (unsigned s = 0; s < stages; ++s) {
      const std::size_t m = std::size_t{1} << s;
      const std::size_t l = n / (2 * m);
      if (s > 0) {
        // Write previous outputs to (unpadded) shared memory.
        const std::size_t pm = std::size_t{1} << (s - 1);
        ctx.threads([&](sim::ThreadCtx& t) {
          const std::size_t u = t.tid;
          const std::size_t j = u / pm;
          const std::size_t k = u % pm;
          sh.store(t, k + pm * (2 * j), vals[t.tid * 2]);
          sh.store(t, k + pm * (2 * j + 1), vals[t.tid * 2 + 1]);
        });
      }
      ctx.threads([&](sim::ThreadCtx& t) {
        const std::size_t u = t.tid;
        const std::size_t j = u / m;
        const std::size_t k = u % m;
        cxf a;
        cxf b;
        if (s == 0) {
          a = in.load(t, gbase + k + m * j);
          b = in.load(t, gbase + k + m * (j + l));
        } else {
          a = sh.load(t, k + m * j);
          b = sh.load(t, k + m * (j + l));
        }
        const cxf w = tw.load(t, j * m);
        vals[t.tid * 2] = a + b;
        vals[t.tid * 2 + 1] = w * (a - b);
      });
    }
    // Final outputs to global.
    const std::size_t pm = n / 2;
    ctx.threads([&](sim::ThreadCtx& t) {
      const std::size_t k = t.tid;  // j == 0 in the last stage
      out.store(t, gbase + k, vals[t.tid * 2]);
      out.store(t, gbase + k + pm, vals[t.tid * 2 + 1]);
    });
  }
}

GlobalRadix2Pass::GlobalRadix2Pass(DeviceBuffer<cxf>& in,
                                   DeviceBuffer<cxf>& out, Shape3 shape,
                                   Axis axis, std::size_t l, std::size_t m,
                                   Direction dir, unsigned grid_blocks)
    : in_(in),
      out_(out),
      shape_(shape),
      axis_(axis),
      l_(l),
      m_(m),
      dir_(dir),
      roots_(make_roots<float>(
          axis == Axis::X ? shape.nx : (axis == Axis::Y ? shape.ny : shape.nz),
          dir)),
      grid_(grid_blocks) {
  REPRO_CHECK(in_.size() >= shape_.volume());
  REPRO_CHECK(out_.size() >= shape_.volume());
}

sim::LaunchConfig GlobalRadix2Pass::config() const {
  sim::LaunchConfig c;
  c.name = "radix2_pass";
  c.grid_blocks = grid_;
  c.threads_per_block = kDefaultThreadsPerBlock;
  c.regs_per_thread = 18;
  c.total_flops = static_cast<double>(shape_.volume()) / 2.0 * 10.0;
  c.fma_fraction = 0.4;
  const double items = static_cast<double>(shape_.volume()) / 2.0;
  c.extra_cycles_per_thread =
      20.0 * items /
      (static_cast<double>(c.grid_blocks) * c.threads_per_block);
  return c;
}

void GlobalRadix2Pass::run_block(sim::BlockCtx& ctx) {
  const auto [nx, ny, nz] = shape_;
  const std::size_t n_ax = axis_ == Axis::X ? nx : (axis_ == Axis::Y ? ny : nz);
  const std::size_t half = n_ax / 2;
  const std::size_t items = shape_.volume() / 2;

  auto in = ctx.global(in_);
  auto out = ctx.global(out_);

  // Element address along the axis for the given cross coordinates.
  auto addr = [&](std::size_t e, std::size_t c0, std::size_t c1) {
    switch (axis_) {
      case Axis::X:
        return shape_.at(e, c0, c1);
      case Axis::Y:
        return shape_.at(c0, e, c1);
      default:
        return shape_.at(c0, c1, e);
    }
  };

  ctx.threads([&](sim::ThreadCtx& t) {
    for (std::size_t w = t.global_id(); w < items; w += t.total_threads()) {
      std::size_t u;
      std::size_t c0;
      std::size_t c1;
      if (axis_ == Axis::X) {
        u = w % half;
        c0 = (w / half) % ny;
        c1 = w / (half * ny);
      } else if (axis_ == Axis::Y) {
        c0 = w % nx;
        u = (w / nx) % half;
        c1 = w / (nx * half);
      } else {
        c0 = w % nx;
        u = (w / nx) % half;
        c1 = w / (nx * half);
      }
      const std::size_t j = u / m_;
      const std::size_t k = u % m_;
      const cxf a = in.load(t, addr(k + m_ * j, c0, c1));
      const cxf b = in.load(t, addr(k + m_ * (j + l_), c0, c1));
      const cxf wf = roots_[j * m_];
      out.store(t, addr(k + m_ * 2 * j, c0, c1), a + b);
      out.store(t, addr(k + m_ * (2 * j + 1), c0, c1), wf * (a - b));
    }
  });
}

DeviceCopyKernel::DeviceCopyKernel(DeviceBuffer<cxf>& in,
                                   DeviceBuffer<cxf>& out, std::size_t count,
                                   unsigned grid_blocks)
    : in_(in), out_(out), count_(count), grid_(grid_blocks) {
  REPRO_CHECK(in_.size() >= count_ && out_.size() >= count_);
}

sim::LaunchConfig DeviceCopyKernel::config() const {
  sim::LaunchConfig c;
  c.name = "device_copy";
  c.grid_blocks = grid_;
  c.threads_per_block = kDefaultThreadsPerBlock;
  c.regs_per_thread = 8;
  return c;
}

void DeviceCopyKernel::run_block(sim::BlockCtx& ctx) {
  auto in = ctx.global(in_);
  auto out = ctx.global(out_);
  ctx.threads([&](sim::ThreadCtx& t) {
    for (std::size_t i = t.global_id(); i < count_; i += t.total_threads()) {
      out.store(t, i, in.load(t, i));
    }
  });
}

NaiveFft3D::NaiveFft3D(Device& dev, Shape3 shape, Direction dir,
                       unsigned grid_blocks)
    : FftPlanT<float>(dev, PlanDesc::naive3d(shape, dir)) {
  desc_.tune.grid_blocks = grid_blocks;
}

std::vector<StepTiming> NaiveFft3D::execute_impl(DeviceBuffer<cxf>& data) {
  const Shape3 shape = desc_.shape;
  // A zero grid_blocks (the default) runs the paper's 3 blocks per SM.
  const unsigned grid = desc_.tune.grid_for(dev_.spec());
  auto ws = ResourceCache::of(dev_).lease<float>(shape.volume());
  auto& work = ws.buffer();
  std::vector<StepTiming> steps;
  auto record = [&](std::string name, const LaunchResult& r) {
    steps.push_back(step_row<float>(std::move(name), r.total_ms,
                                    shape.volume()));
  };

  // X axis: batched shared-memory FFT over contiguous lines (in place).
  {
    Naive1DFftKernel k(data, data, shape.nx, shape.volume() / shape.nx,
                       desc_.dir, grid);
    record("X (naive shared-memory FFT)", dev_.launch(k));
  }

  // Y and Z axes: one global radix-2 pass per stage, ping-ponging.
  for (Axis axis : {Axis::Y, Axis::Z}) {
    const std::size_t n_ax = axis == Axis::Y ? shape.ny : shape.nz;
    const unsigned stages = log2_exact(n_ax);
    DeviceBuffer<cxf>* src = &data;
    DeviceBuffer<cxf>* dst = &work;
    for (unsigned s = 0; s < stages; ++s) {
      const std::size_t m = std::size_t{1} << s;
      const std::size_t l = n_ax / (2 * m);
      GlobalRadix2Pass k(*src, *dst, shape, axis, l, m, desc_.dir, grid);
      record(std::string(axis == Axis::Y ? "Y" : "Z") + " radix-2 pass " +
                 std::to_string(s + 1),
             dev_.launch(k));
      std::swap(src, dst);
    }
    if (src != &data) {
      DeviceCopyKernel k(*src, data, shape.volume(), grid);
      record("copy back", dev_.launch(k));
    }
  }

  finish(steps);
  return steps;
}

}  // namespace repro::gpufft
