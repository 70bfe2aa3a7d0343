#include "gpufft/real3d.h"

#include <algorithm>
#include <type_traits>

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
                          BandwidthPlanOptions options)
    : PlanBaseT<T>(dev,
                   PlanDesc::real3d(shape, dir,
                                    std::is_same_v<T, float>
                                        ? Precision::F32
                                        : Precision::F64)),
      opt_(options),
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
  REPRO_CHECK_MSG(options.executable_patterns(),
                  "only the paper's read-D/write-A coarse pattern pairing "
                  "is implemented; other pairs are model-only knobs");
  this->desc_.tune = options;
  opt_.grid_blocks = opt_.grid_for(dev.spec());
}

template <typename T>
std::vector<StepTiming> RealFft3DT<T>::execute_impl(DeviceBuffer<cx<T>>& data) {
  const Shape3 shape = this->desc_.shape;
  const std::size_t elems = half_spectrum_elems(shape);
  REPRO_CHECK(data.size() >= elems);
  auto ws = ResourceCache::of(this->dev_).template lease<T>(elems);
  auto& work = ws.buffer();
  std::vector<StepTiming> steps;
  steps.reserve(5);
  auto record = [&](const char* name, const LaunchResult& r) {
    steps.push_back(StepTiming{
        "step" + std::to_string(steps.size() + 1) + " (" + name + ")",
        r.total_ms, useful_gbs(elems, r.total_ms, sizeof(cx<T>))});
  };

  RankKernelParams p;
  p.dir = this->desc_.dir;
  p.twiddles = opt_.coarse_twiddles;
  p.grid_blocks = opt_.grid_blocks;
  p.threads_per_block = opt_.threads_per_block;

  RealFineParams fp;
  fp.nx = shape.nx;
  fp.count = shape.ny * shape.nz;
  fp.twiddles = opt_.fine_twiddles;
  fp.grid_blocks = opt_.grid_blocks;
  // nx/8 threads per transform (half-length lines); whole groups per block.
  fp.threads_per_block = static_cast<unsigned>(
      std::max<std::size_t>(shape.nx / 8, opt_.threads_per_block));
  fp.shmem_pad_words = opt_.shmem_pad_words;

  // The coarse ranks run over the (nx/2)-pitch main pencils, then sweep
  // the 1-wide Nyquist tail pencils at their offset — the same four
  // steps at ~1/(nx/2) of the cost, folded into the main steps' timings
  // so the step table keeps the five-step shape.
  const std::size_t m = shape.nx / 2;
  const Shape3 main_pencil{m, shape.ny, shape.nz};
  const Shape3 tail_pencil{1, shape.ny, shape.nz};
  RankKernelParams pt = p;
  pt.elem_offset = m * shape.ny * shape.nz;
  auto run_ranks = [&] {
    const std::size_t first = steps.size();
    run_coarse_ranks<T>(this->dev_, data, work, main_pencil, sy_, sz_, p,
                        tw_y_.get(), tw_z_.get(), record);
    std::size_t i = first;
    run_coarse_ranks<T>(this->dev_, data, work, tail_pencil, sy_, sz_, pt,
                        tw_y_.get(), tw_z_.get(),
                        [&](const char*, const LaunchResult& r) {
                          steps[i].ms += r.total_ms;
                          steps[i].gbs =
                              useful_gbs(elems, steps[i].ms, sizeof(cx<T>));
                          ++i;
                        });
  };

  if (this->desc_.dir == Direction::Forward) {
    // X first: the Hermitian unpack is per-row local before Y/Z mix rows.
    {
      RealFineR2CKernelT<T> k(data, fp, tw_half_.get(), tw_x_.get());
      record("X r2c fine", this->dev_.launch(k));
    }
    run_ranks();
  } else {
    run_ranks();
    // Fold the full normalization into the pack pass: true inverse.
    fp.scale = 1.0 / (static_cast<double>(shape.nx / 2) *
                      static_cast<double>(shape.ny) *
                      static_cast<double>(shape.nz));
    {
      RealFineC2RKernelT<T> k(data, fp, tw_half_.get(), tw_x_.get());
      record("X c2r fine", this->dev_.launch(k));
    }
  }

  this->finish(steps);
  return steps;
}

template <typename T>
double run_real_coarse_slab(Device& dev, DeviceBuffer<cx<T>>& data,
                            Shape3 logical, Direction dir,
                            const BandwidthPlanOptions& opt) {
  const std::size_t m = logical.nx / 2;
  const Shape3 main_pencil{m, logical.ny, logical.nz};
  const Shape3 tail_pencil{1, logical.ny, logical.nz};
  const std::size_t elems = half_spectrum_elems(logical);
  REPRO_CHECK(data.size() >= elems);
  auto& cache = ResourceCache::of(dev);
  auto ws = cache.template lease<T>(elems);
  auto tw_y = cache.template twiddles<T>(logical.ny, dir);
  auto tw_z = cache.template twiddles<T>(logical.nz, dir);
  RankKernelParams p;
  p.dir = dir;
  p.twiddles = opt.coarse_twiddles;
  p.grid_blocks = opt.grid_for(dev.spec());
  p.threads_per_block = opt.threads_per_block;
  const AxisSplit sy = split_axis(logical.ny, opt.coarse_radix);
  const AxisSplit sz = split_axis(logical.nz, opt.coarse_radix);
  double total_ms = 0.0;
  const auto add_ms = [&](const char*, const LaunchResult& r) {
    total_ms += r.total_ms;
  };
  run_coarse_ranks<T>(dev, data, ws.buffer(), main_pencil, sy, sz, p,
                      tw_y.get(), tw_z.get(), add_ms);
  RankKernelParams pt = p;
  pt.elem_offset = m * logical.ny * logical.nz;
  run_coarse_ranks<T>(dev, data, ws.buffer(), tail_pencil, sy, sz, pt,
                      tw_y.get(), tw_z.get(), add_ms);
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
                                            const BandwidthPlanOptions&);

}  // namespace repro::gpufft
