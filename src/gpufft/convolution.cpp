#include "gpufft/convolution.h"

#include <limits>

#include "gpufft/real3d.h"
#include "gpufft/registry.h"

namespace repro::gpufft {

PointwiseMultiplyKernel::PointwiseMultiplyKernel(
    DeviceBuffer<cxf>& a, DeviceBuffer<cxf>& b, DeviceBuffer<cxf>& out,
    std::size_t count, bool conjugate_b, unsigned grid_blocks)
    : a_(a), b_(b), out_(out), count_(count), conj_b_(conjugate_b),
      grid_(grid_blocks) {
  REPRO_CHECK(a_.size() >= count_ && b_.size() >= count_ &&
              out_.size() >= count_);
}

sim::LaunchConfig PointwiseMultiplyKernel::config() const {
  sim::LaunchConfig c;
  c.name = conj_b_ ? "pointwise_mul_conj" : "pointwise_mul";
  c.grid_blocks = grid_;
  c.threads_per_block = kDefaultThreadsPerBlock;
  c.regs_per_thread = 12;
  c.total_flops = 6.0 * static_cast<double>(count_);
  c.fma_fraction = 0.5;
  return c;
}

void PointwiseMultiplyKernel::run_block(sim::BlockCtx& ctx) {
  auto a = ctx.global(a_);
  auto b = ctx.global(b_);
  auto out = ctx.global(out_);
  ctx.threads([&](sim::ThreadCtx& t) {
    for (std::size_t i = t.global_id(); i < count_; i += t.total_threads()) {
      const cxf vb = b.load(t, i);
      out.store(t, i, a.load(t, i) * (conj_b_ ? vb.conj() : vb));
    }
  });
}

ArgmaxKernel::ArgmaxKernel(DeviceBuffer<cxf>& data, Shape3 shape,
                           Layout layout, DeviceBuffer<cxf>& partial,
                           unsigned grid_blocks)
    : data_(data),
      shape_(shape),
      layout_(layout),
      partial_(partial),
      grid_(grid_blocks) {
  REPRO_CHECK(data_.size() >= (layout_ == Layout::Complex
                                   ? shape_.volume()
                                   : half_spectrum_elems(shape_)));
  REPRO_CHECK(partial_.size() >= grid_);
  // Candidate indices travel in a float's mantissa (as on the real card's
  // float2 reductions): exact only below 2^24.
  REPRO_CHECK_MSG(shape_.volume() <= (1u << 24),
                  "argmax index exceeds float mantissa range");
}

sim::LaunchConfig ArgmaxKernel::config() const {
  sim::LaunchConfig c;
  c.name = layout_ == Layout::Complex ? "argmax_real" : "argmax_packed_real";
  c.grid_blocks = grid_;
  c.threads_per_block = kDefaultThreadsPerBlock;
  c.regs_per_thread = 12;
  c.shmem_per_block = kDefaultThreadsPerBlock * sizeof(cxf);
  c.total_flops = static_cast<double>(shape_.volume());  // compares
  c.fma_fraction = 0.0;
  return c;
}

void ArgmaxKernel::run_block(sim::BlockCtx& ctx) {
  auto d = ctx.global(data_);
  auto p = ctx.global(partial_);
  auto sh = ctx.shared<cxf>(0, kDefaultThreadsPerBlock);

  // Per-thread scan, then a shared-memory tree reduction.
  ctx.threads([&](sim::ThreadCtx& t) {
    float best = -std::numeric_limits<float>::infinity();
    std::size_t best_i = 0;
    if (layout_ == Layout::Complex) {
      const std::size_t count = shape_.volume();
      for (std::size_t i = t.global_id(); i < count; i += t.total_threads()) {
        const float v = d.load(t, i).re;
        if (v > best) {
          best = v;
          best_i = i;
        }
      }
    } else {
      // The main block only, two scores per element.
      const std::size_t m = shape_.nx / 2;
      const std::size_t count = m * shape_.ny * shape_.nz;
      for (std::size_t i = t.global_id(); i < count; i += t.total_threads()) {
        const cxf v = d.load(t, i);
        const std::size_t idx = (i / m) * shape_.nx + 2 * (i % m);
        if (v.re > best) {
          best = v.re;
          best_i = idx;
        }
        if (v.im > best) {
          best = v.im;
          best_i = idx + 1;
        }
      }
    }
    sh.store(t, t.tid, cxf{best, static_cast<float>(best_i)});
  });
  const unsigned nthreads = ctx.config().threads_per_block;
  for (unsigned stride = nthreads / 2; stride > 0; stride /= 2) {
    ctx.threads([&](sim::ThreadCtx& t) {
      if (t.tid < stride) {
        const cxf a = sh.load(t, t.tid);
        const cxf b = sh.load(t, t.tid + stride);
        sh.store(t, t.tid, b.re > a.re ? b : a);
      }
    });
  }
  ctx.threads([&](sim::ThreadCtx& t) {
    if (t.tid == 0) {
      p.store(t, ctx.block_index(), sh.load(t, 0));
    }
  });
}

Convolution3D::Convolution3D(Device& dev, Shape3 shape, Layout layout)
    : FftPlanT<float>(dev, PlanDesc::convolution(shape, layout)),
      grid_(default_grid_blocks(dev.spec())),
      filter_hat_(dev.alloc<cxf>(desc_.buffer_elements())),
      signal_(dev.alloc<cxf>(desc_.buffer_elements())),
      partial_(dev.alloc<cxf>(grid_)),
      fwd_(PlanRegistry::of(dev).get_or_create(
          layout == Layout::RealHalfSpectrum
              ? PlanDesc::real3d(shape, Direction::Forward, Precision::F32)
              : PlanDesc::bandwidth3d(shape, Direction::Forward,
                                      Precision::F32))),
      inv_(PlanRegistry::of(dev).get_or_create(
          layout == Layout::RealHalfSpectrum
              ? PlanDesc::real3d(shape, Direction::Inverse, Precision::F32)
              : PlanDesc::bandwidth3d(shape, Direction::Inverse,
                                      Precision::F32))) {}

void Convolution3D::set_filter(std::span<const cxf> filter) {
  REPRO_CHECK_MSG(desc_.layout == Layout::Complex,
                  "set_filter_real is the real-layout entry point");
  REPRO_CHECK(filter.size() == desc_.shape.volume());
  dev_.h2d(filter_hat_, filter);
  fwd_->execute(filter_hat_);
  filter_set_ = true;
}

void Convolution3D::set_filter_real(std::span<const float> filter) {
  REPRO_CHECK_MSG(desc_.layout == Layout::RealHalfSpectrum,
                  "set_filter is the complex-layout entry point");
  REPRO_CHECK(filter.size() == desc_.shape.volume());
  const auto packed = pack_real_volume(filter, desc_.shape);
  dev_.h2d(filter_hat_, std::span<const cxf>(packed));
  fwd_->execute(filter_hat_);
  filter_set_ = true;
}

std::vector<StepTiming> Convolution3D::execute_impl(DeviceBuffer<cxf>& data) {
  REPRO_CHECK_MSG(filter_set_, "set_filter must be called first");
  const std::size_t elems = desc_.buffer_elements();
  REPRO_CHECK(data.size() >= elems);
  std::vector<StepTiming> steps;
  auto record = [&](const char* name, const LaunchResult& r) {
    steps.push_back(step_row<float>(name, r.total_ms, elems));
  };

  for (const auto& s : fwd_->execute(data)) {
    steps.push_back(s);
  }
  // Both layouts store each retained bin exactly once, so the Hermitian
  // half-spectrum product is the same elementwise pass as the full one.
  PointwiseMultiplyKernel mul(data, filter_hat_, data, elems,
                              /*conjugate_b=*/true, grid_);
  record("pointwise multiply", dev_.launch(mul));
  for (const auto& s : inv_->execute(data)) {
    steps.push_back(s);
  }
  if (desc_.layout == Layout::Complex) {
    // The real-layout c2r pass folds the normalization in; the complex
    // inverse needs the explicit 1/N.
    ScaleKernel scale(data, elems, 1.0f / static_cast<float>(elems), grid_);
    record("scale 1/N", dev_.launch(scale));
  }

  finish(steps);
  return steps;
}

void Convolution3D::correlate_on_device(std::span<const cxf> signal) {
  REPRO_CHECK_MSG(desc_.layout == Layout::Complex,
                  "correlate_real is the real-layout entry point");
  REPRO_CHECK(signal.size() == desc_.shape.volume());
  dev_.h2d(signal_, signal);
  execute(signal_);
}

void Convolution3D::correlate_real_on_device(std::span<const float> signal) {
  REPRO_CHECK_MSG(desc_.layout == Layout::RealHalfSpectrum,
                  "correlate is the complex-layout entry point");
  REPRO_CHECK(signal.size() == desc_.shape.volume());
  const auto packed = pack_real_volume(signal, desc_.shape);
  dev_.h2d(signal_, std::span<const cxf>(packed));
  execute(signal_);
}

std::vector<cxf> Convolution3D::correlate(std::span<const cxf> signal) {
  correlate_on_device(signal);
  std::vector<cxf> out(desc_.shape.volume());
  dev_.d2h(std::span<cxf>(out), signal_);
  return out;
}

std::vector<float> Convolution3D::correlate_real(
    std::span<const float> signal) {
  correlate_real_on_device(signal);
  std::vector<cxf> packed(desc_.buffer_elements());
  dev_.d2h(std::span<cxf>(packed), signal_);
  return unpack_real_volume(std::span<const cxf>(packed), desc_.shape);
}

BestMatch Convolution3D::reduce_candidates() {
  ArgmaxKernel argmax(signal_, desc_.shape, desc_.layout, partial_, grid_);
  dev_.launch(argmax);
  std::vector<cxf> candidates(grid_);
  dev_.d2h(std::span<cxf>(candidates), partial_);
  BestMatch best{0, -std::numeric_limits<float>::infinity()};
  for (const auto& c : candidates) {
    if (c.re > best.score) {
      best.score = c.re;
      best.index = static_cast<std::size_t>(c.im);
    }
  }
  return best;
}

BestMatch Convolution3D::best_translation(std::span<const cxf> signal) {
  correlate_on_device(signal);
  return reduce_candidates();
}

BestMatch Convolution3D::best_translation_real(std::span<const float> signal) {
  correlate_real_on_device(signal);
  return reduce_candidates();
}

}  // namespace repro::gpufft
