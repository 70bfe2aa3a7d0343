#include "gpufft/real3d.h"

#include "fft/factor.h"
#include "gpufft/cache.h"

namespace repro::gpufft {

template <typename T>
std::vector<cx<T>> pack_real_volume(std::span<const T> real, Shape3 shape) {
  REPRO_CHECK(real.size() == shape.volume());
  const std::size_t m = shape.nx / 2;
  const std::size_t rows = shape.ny * shape.nz;
  // Main block (pitch m) plus the zeroed Nyquist tail plane.
  std::vector<cx<T>> packed((m + 1) * rows);
  for (std::size_t row = 0; row < rows; ++row) {
    const T* src = real.data() + row * shape.nx;
    cx<T>* dst = packed.data() + row * m;
    for (std::size_t j = 0; j < m; ++j) {
      dst[j] = cx<T>{src[2 * j], src[2 * j + 1]};
    }
  }
  return packed;
}

template <typename T>
std::vector<T> unpack_real_volume(std::span<const cx<T>> packed,
                                  Shape3 shape) {
  const std::size_t m = shape.nx / 2;
  const std::size_t rows = shape.ny * shape.nz;
  REPRO_CHECK(packed.size() >= (m + 1) * rows);
  std::vector<T> real(shape.volume());
  for (std::size_t row = 0; row < rows; ++row) {
    const cx<T>* src = packed.data() + row * m;
    T* dst = real.data() + row * shape.nx;
    for (std::size_t j = 0; j < m; ++j) {
      dst[2 * j] = src[j].re;
      dst[2 * j + 1] = src[j].im;
    }
  }
  return real;
}

template <typename T>
RealFft3DT<T>::RealFft3DT(Device& dev, Shape3 shape, Direction dir,
                          TuneConfig options)
    : FftPlanT<T>(dev, PlanDesc::real3d(shape, dir), options),
      sy_(split_axis(shape.ny, options.coarse_radix)),
      sz_(split_axis(shape.nz, options.coarse_radix)),
      tw_half_(ResourceCache::of(dev).twiddles<T>(shape.nx / 2, dir)),
      tw_x_(ResourceCache::of(dev).twiddles<T>(shape.nx, dir)),
      tw_y_(ResourceCache::of(dev).twiddles<T>(shape.ny, dir)),
      tw_z_(ResourceCache::of(dev).twiddles<T>(shape.nz, dir)) {
  REPRO_CHECK_MSG(is_pow2(shape.nx) && shape.nx >= 32 && shape.nx <= 512,
                  "real plans need an X extent that is a power of two in "
                  "[32, 512] (the half-length fine stages need nx/2 >= 16); "
                  "got nx=" + fft::describe_size(shape.nx) +
                      " — transform a complex copy through the Mixed3D "
                      "plan for other sizes");
}

namespace {

/// The real plans' coarse pass over a split-layout volume of logical
/// extent `logical`: the four coarse ranks over the (nx/2)-pitch main
/// pencils, then the same four steps over the 1-wide Nyquist tail pencils
/// at the tail's offset, at ~1/(nx/2) of the cost. `main` sees the main
/// pencils' launches and `tail` the tail's, each in step order.
template <typename T>
void run_real_coarse_pass(Device& dev, DeviceBuffer<cx<T>>& data,
                          DeviceBuffer<cx<T>>& work, Shape3 logical,
                          AxisSplit sy, AxisSplit sz, const TuneConfig& tune,
                          Direction dir, const DeviceBuffer<cx<T>>* tw_y,
                          const DeviceBuffer<cx<T>>* tw_z,
                          const RankStepRecorder& main,
                          const RankStepRecorder& tail) {
  const std::size_t m = logical.nx / 2;
  RankKernelParams p = RankKernelParams::tuned(tune, dev.spec(), dir);
  run_coarse_ranks<T>(dev, data, work, Shape3{m, logical.ny, logical.nz},
                      sy, sz, p, tw_y, tw_z, main);
  p.elem_offset = m * logical.ny * logical.nz;
  run_coarse_ranks<T>(dev, data, work, Shape3{1, logical.ny, logical.nz},
                      sy, sz, p, tw_y, tw_z, tail);
}

}  // namespace

template <typename T>
std::vector<StepTiming> RealFft3DT<T>::execute_impl(DeviceBuffer<cx<T>>& data) {
  const Shape3 shape = this->desc_.shape;
  const TuneConfig& tune = this->desc_.tune;
  const Direction dir = this->desc_.dir;
  Device& dev = this->dev_;
  const std::size_t elems = half_spectrum_elems(shape);
  REPRO_CHECK(data.size() >= elems);
  auto ws = ResourceCache::of(dev).template lease<T>(elems);
  std::vector<StepTiming> steps;
  steps.reserve(5);
  auto record = [&](const char* name, const LaunchResult& r) {
    steps.push_back(step_row<T>(
        "step" + std::to_string(steps.size() + 1) + " (" + name + ")",
        r.total_ms, elems));
  };
  // The tail launches fold into the main steps' rows, so the step table
  // keeps the five-step shape.
  auto run_ranks = [&] {
    std::size_t i = steps.size();
    run_real_coarse_pass<T>(dev, data, ws.buffer(), shape, sy_, sz_, tune,
                            dir, tw_y_.get(), tw_z_.get(), record,
                            [&](const char*, const LaunchResult& r) {
                              StepTiming& s = steps[i++];
                              s = step_row<T>(s.name, s.ms + r.total_ms,
                                              elems);
                            });
  };
  auto fp = RealFineParams::tuned(tune, dev.spec(), shape.nx,
                                  shape.ny * shape.nz, dir);
  if (dir == Direction::Inverse) {
    // Fold the full normalization into the pack pass: true inverse.
    fp.scale = 1.0 / (static_cast<double>(shape.nx / 2) *
                      static_cast<double>(shape.ny) *
                      static_cast<double>(shape.nz));
  }
  RealFineKernelT<T> x_pass(data, fp, tw_half_.get(), tw_x_.get());

  if (dir == Direction::Forward) {
    // X first: the Hermitian unpack is per-row local before Y/Z mix rows.
    record("X r2c fine", dev.launch(x_pass));
    run_ranks();
  } else {
    run_ranks();
    record("X c2r fine", dev.launch(x_pass));
  }

  this->finish(steps);
  return steps;
}

template <typename T>
double run_real_coarse_slab(Device& dev, DeviceBuffer<cx<T>>& data,
                            Shape3 logical, Direction dir,
                            const TuneConfig& opt) {
  const std::size_t elems = half_spectrum_elems(logical);
  REPRO_CHECK(data.size() >= elems);
  auto& cache = ResourceCache::of(dev);
  auto ws = cache.template lease<T>(elems);
  auto tw_y = cache.template twiddles<T>(logical.ny, dir);
  auto tw_z = cache.template twiddles<T>(logical.nz, dir);
  double total_ms = 0.0;
  const auto add_ms = [&](const char*, const LaunchResult& r) {
    total_ms += r.total_ms;
  };
  run_real_coarse_pass<T>(dev, data, ws.buffer(), logical,
                          split_axis(logical.ny, opt.coarse_radix),
                          split_axis(logical.nz, opt.coarse_radix), opt, dir,
                          tw_y.get(), tw_z.get(), add_ms, add_ms);
  return total_ms;
}

template std::vector<cx<float>> pack_real_volume<float>(
    std::span<const float>, Shape3);
template std::vector<cx<double>> pack_real_volume<double>(
    std::span<const double>, Shape3);
template std::vector<float> unpack_real_volume<float>(
    std::span<const cx<float>>, Shape3);
template std::vector<double> unpack_real_volume<double>(
    std::span<const cx<double>>, Shape3);
template class RealFft3DT<float>;
template class RealFft3DT<double>;
template double run_real_coarse_slab<float>(Device&,
                                            DeviceBuffer<cx<float>>&, Shape3,
                                            Direction,
                                            const TuneConfig&);

}  // namespace repro::gpufft
