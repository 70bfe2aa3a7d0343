#include "gpufft/outofcore.h"

#include <algorithm>
#include <string>

#include "fft/factor.h"
#include "gpufft/cache.h"
#include "gpufft/rank_kernels.h"
#include "gpufft/registry.h"
#include "gpufft/smallfft.h"
#include "gpufft/staging.h"

namespace repro::gpufft {

ZPencilFftKernel::ZPencilFftKernel(DeviceBuffer<cxf>& data, Shape3 slab,
                                   Direction dir, unsigned grid_blocks,
                                   std::size_t elem_offset,
                                   unsigned threads_per_block)
    : data_(data),
      slab_(slab),
      dir_(dir),
      roots_(make_roots<float>(slab.nz, dir)),
      grid_(grid_blocks),
      offset_(elem_offset),
      threads_(threads_per_block) {
  REPRO_CHECK(data_.size() >= offset_ + slab_.volume());
  REPRO_CHECK(slab_.nz >= 2 && slab_.nz <= kMaxFactor);
}

sim::LaunchConfig ZPencilFftKernel::config() const {
  const std::size_t items = slab_.nx * slab_.ny;
  sim::LaunchConfig c;
  c.name = "zpencil_fft" + std::to_string(slab_.nz);
  c.grid_blocks = grid_;
  c.threads_per_block = threads_;
  c.regs_per_thread = 28;
  c.total_flops = static_cast<double>(items) * fft_small_flops(slab_.nz);
  c.fma_fraction = 0.5;
  c.extra_cycles_per_thread =
      32.0 * static_cast<double>(items) /
      (static_cast<double>(grid_) * c.threads_per_block);
  return c;
}

void ZPencilFftKernel::run_block(sim::BlockCtx& ctx) {
  // The Z digit is dim 4 on both sides (pattern D in place); item w is
  // (x + nx*y), x innermost.
  const RankWalk walk(Shape5{{slab_.nx, slab_.ny, 1, 1, slab_.nz}}, 4, 4);
  const int sign = fft::direction_sign(dir_);
  auto d = ctx.global(data_, offset_);
  ctx.threads([&](sim::ThreadCtx& t) {
    cxf v[kMaxFactor];
    for (std::size_t w = t.global_id(); w < walk.items;
         w += t.total_threads()) {
      const std::size_t load0 = walk.load_base(w);
      for (std::size_t q = 0; q < walk.L; ++q) {
        v[q] = d.load(t, load0 + walk.load_stride * q);
      }
      fft_small(v, walk.L, sign, roots_.data());
      const std::size_t store0 = walk.store_base(w);
      for (std::size_t q = 0; q < walk.L; ++q) {
        d.store(t, store0 + walk.store_stride * q, v[q]);
      }
    }
  });
}

SlabTwiddleKernel::SlabTwiddleKernel(DeviceBuffer<cxf>& data, Shape3 slab,
                                     std::size_t n, std::size_t residue,
                                     Direction dir, unsigned grid_blocks,
                                     std::size_t elem_offset,
                                     unsigned threads_per_block)
    : data_(data),
      slab_(slab),
      roots_n_(make_roots<float>(n, dir)),
      residue_(residue),
      grid_(grid_blocks),
      offset_(elem_offset),
      threads_(threads_per_block) {
  REPRO_CHECK(data_.size() >= offset_ + slab_.volume());
  REPRO_CHECK(residue_ * (slab_.nz - 1) < n);
}

sim::LaunchConfig SlabTwiddleKernel::config() const {
  sim::LaunchConfig c;
  c.name = "slab_twiddle";
  c.grid_blocks = grid_;
  c.threads_per_block = threads_;
  c.regs_per_thread = 10;
  c.total_flops = 6.0 * static_cast<double>(slab_.volume());
  c.fma_fraction = 0.5;
  return c;
}

void SlabTwiddleKernel::run_block(sim::BlockCtx& ctx) {
  const std::size_t plane = slab_.nx * slab_.ny;
  const std::size_t volume = slab_.volume();
  auto d = ctx.global(data_, offset_);
  ctx.threads([&](sim::ThreadCtx& t) {
    for (std::size_t i = t.global_id(); i < volume;
         i += t.total_threads()) {
      const std::size_t kz = i / plane;
      d.store(t, i, roots_n_[residue_ * kz] * d.load(t, i));
    }
  });
}

std::vector<StepTiming> table12_rows(const ShardTiming& t, std::size_t elems) {
  auto row = [&](const char* name, double ms) {
    return step_row<float>(name, ms, elems);
  };
  return {
      row("phase1 send", t.h2d1_ms),    row("phase1 slab FFT", t.fft1_ms),
      row("phase1 twiddle", t.twiddle_ms), row("phase1 receive", t.d2h1_ms),
      row("phase2 send", t.h2d2_ms),    row("phase2 pencil FFT", t.fft2_ms),
      row("phase2 receive", t.d2h2_ms),
  };
}

std::size_t checked_decimation(std::size_t n, std::size_t requested,
                               const TuneConfig& tune) {
  const std::size_t s = tune.slab_depth != 0 ? tune.slab_depth : requested;
  const std::string got =
      "; got n=" + fft::describe_size(n) + " S=" + std::to_string(s);
  REPRO_CHECK_MSG(valid_decimation(n, s),
                  "the Z decimation factor S must divide n and be a "
                  "power-of-two small-FFT factor (one small-FFT rank runs "
                  "across the S slabs)" + got +
                      " (n itself may be non-pow2 — those slabs run the "
                      "mixed-radix plan)");
  return s;
}

PlanDesc slab_plan_desc(PlanDesc slab, TuneConfig tune) {
  tune.slab_depth = 0;
  tune.pitch = PitchMode::Dense;
  slab.tune = tune;
  return slab;
}

OutOfCoreFft3D::OutOfCoreFft3D(Device& dev, std::size_t n, std::size_t splits,
                               Direction dir, TuneConfig tune)
    : FftPlanT<float>(
          dev,
          PlanDesc::out_of_core(n, checked_decimation(n, splits, tune), dir)),
      n_(n),
      splits_(desc_.splits),
      slab_shape_{n, n, n / splits_},
      // dense3d routes a non-pow2 slab to the mixed-radix plan.
      slab_plan_(PlanRegistry::of(dev).get_or_create(slab_plan_desc(
          PlanDesc::dense3d(slab_shape_, dir, Precision::F32), tune))),
      host_work_(n * n * n) {
  desc_.tune = tune;
}

std::vector<StepTiming> OutOfCoreFft3D::execute_impl(DeviceBuffer<cxf>&) {
  REPRO_FAIL(
      "out-of-core plans transform host-resident volumes that exceed device "
      "memory; use execute_host()");
}

OutOfCoreTiming OutOfCoreFft3D::execute(std::span<cxf> host_data) {
  return with_plan_context(desc_, [&] {
    return verified_span_run<float>(dev_, this->exec_policy(), desc_,
                                    host_data,
                                    [&] { return execute_impl(host_data); });
  });
}

OutOfCoreTiming OutOfCoreFft3D::execute_impl(std::span<cxf> host_data) {
  REPRO_CHECK(host_data.size() == n_ * n_ * n_);
  const std::size_t plane = n_ * n_;
  const std::size_t local_nz = n_ / splits_;
  const unsigned grid = desc_.tune.grid_for(dev_.spec());
  const StagePolicy& sp = this->exec_policy().staging;

  // Phase 1 stages n/splits planes, phase 2 stages `splits` planes; two
  // arena leases (held only for the duration of the run) double-buffer
  // the slabs so adjacent iterations can overlap across two streams.
  const std::size_t slab_elems = plane * std::max(local_nz, splits_);
  auto ws0 = ResourceCache::of(dev_).lease<float>(slab_elems);
  auto ws1 = ResourceCache::of(dev_).lease<float>(slab_elems);
  DeviceBuffer<cxf>* slabs[2] = {&ws0.buffer(), &ws1.buffer()};
  sim::Stream stream0(dev_);
  sim::Stream stream1(dev_);
  sim::Stream* streams[2] = {&stream0, &stream1};

  const double start_ms = dev_.elapsed_ms();
  OutOfCoreTiming timing;

  // ---- Phase 1: per Z residue, slab FFT + twiddle ----
  // Residue r runs on stream r%2 and slab r%2; slab reuse by residue r+2
  // is ordered behind residue r's receive by the stream itself.
  for (std::size_t residue = 0; residue < splits_; ++residue) {
    sim::Stream& s = *streams[residue % 2];
    auto& slab = *slabs[residue % 2];
    for (std::size_t j = 0; j < local_nz; ++j) {
      const std::size_t z = residue + splits_ * j;
      const std::span<const cxf> src = host_data.subspan(z * plane, plane);
      timing.h2d1_ms += staged_h2d(dev_, slab, src, &s, j * plane, sp);
    }

    for (const auto& step : slab_plan_->execute_async(slab, s)) {
      timing.fft1_ms += step.ms;
    }

    SlabTwiddleKernel tw(slab, slab_shape_, n_, residue, desc_.dir, grid, 0,
                         desc_.tune.threads_per_block);
    timing.twiddle_ms += dev_.launch_async(tw, s).total_ms;

    for (std::size_t k = 0; k < local_nz; ++k) {
      const std::size_t z = residue + splits_ * k;
      timing.d2h1_ms += staged_d2h(
          dev_, std::span<cxf>(host_work_).subspan(z * plane, plane), slab,
          &s, k * plane, sp);
      timing.exchange_bytes += plane * sizeof(cxf);
    }
  }

  // Phase boundary: every phase-2 group gathers one plane from each
  // phase-1 residue, so both streams fence on both timelines.
  sim::Event phase1_done0;
  sim::Event phase1_done1;
  stream0.record(phase1_done0);
  stream1.record(phase1_done1);
  stream0.wait(phase1_done1);
  stream1.wait(phase1_done0);

  // ---- Phase 2: splits-point FFTs across the residues ----
  const Shape3 pencil_slab{n_, n_, splits_};
  for (std::size_t k = 0; k < local_nz; ++k) {
    sim::Stream& s = *streams[k % 2];
    auto& slab = *slabs[k % 2];
    timing.h2d2_ms += staged_h2d(
        dev_, slab,
        std::span<const cxf>(host_work_)
            .subspan(splits_ * k * plane, splits_ * plane),
        &s, /*dst_offset=*/0, sp);
    timing.exchange_bytes += splits_ * plane * sizeof(cxf);

    ZPencilFftKernel fft(slab, pencil_slab, desc_.dir, grid, 0,
                         desc_.tune.threads_per_block);
    timing.fft2_ms += dev_.launch_async(fft, s).total_ms;

    for (std::size_t k2 = 0; k2 < splits_; ++k2) {
      const std::size_t z = k + local_nz * k2;
      timing.d2h2_ms += staged_d2h(dev_, host_data.subspan(z * plane, plane),
                                   slab, &s, k2 * plane, sp);
    }
  }

  dev_.sync(stream0);
  dev_.sync(stream1);
  timing.makespan_ms = dev_.elapsed_ms() - start_ms;
  last_timing_ = timing;
  last_total_ms_ = timing.makespan_ms;
  return timing;
}

std::vector<StepTiming> OutOfCoreFft3D::execute_host(std::span<cxf> data) {
  const OutOfCoreTiming t = execute(data);
  // The rows report the schedule-independent Table 12 sums; the cost of
  // the run is the overlapped makespan the stream scheduler resolved.
  last_total_ms_ = t.makespan_ms;
  return table12_rows(t, n_ * n_ * n_);
}

std::vector<StepTiming> OutOfCoreFft3D::execute_batch_host(
    std::span<const std::span<cxf>> volumes) {
  REPRO_CHECK(!volumes.empty());
  // Each volume exceeds device memory, so volumes cannot double-buffer
  // against each other; every run already overlaps internally.
  const double t0 = dev_.elapsed_ms();
  std::vector<StepTiming> total;
  std::vector<double> traffic;
  for (const auto& volume : volumes) {
    accumulate_steps(total, traffic, execute_host(volume));
  }
  finish_accumulation(total, traffic);
  last_total_ms_ = dev_.elapsed_ms() - t0;
  return total;
}

}  // namespace repro::gpufft
