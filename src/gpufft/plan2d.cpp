#include "gpufft/plan2d.h"

#include "fft/factor.h"
#include "gpufft/cache.h"

namespace repro::gpufft {

template <typename T>
BandwidthFft2DT<T>::BandwidthFft2DT(Device& dev, Shape2 shape, Direction dir,
                                    TuneConfig options)
    : FftPlanT<T>(dev, PlanDesc::bandwidth2d(shape.nx, shape.ny, dir),
                  options),
      sy_(split_axis(shape.ny, options.coarse_radix)),
      tw_x_(ResourceCache::of(dev).twiddles<T>(shape.nx, dir)),
      tw_y_(ResourceCache::of(dev).twiddles<T>(shape.ny, dir)) {
  REPRO_CHECK_MSG(is_pow2(shape.nx) && shape.nx >= 16 && shape.nx <= 512,
                  "the 2-D plan needs a power-of-two X extent in [16, 512]; "
                  "got nx=" + fft::describe_size(shape.nx) +
                      " — the host fft::Plan2D accepts any size");
}

template <typename T>
std::vector<StepTiming> BandwidthFft2DT<T>::execute_impl(
    DeviceBuffer<cx<T>>& data) {
  const std::size_t nx = this->desc_.shape.nx;
  const std::size_t ny = this->desc_.shape.ny;
  const std::size_t area = nx * ny;
  const TuneConfig& tune = this->desc_.tune;
  Device& dev = this->dev_;
  REPRO_CHECK(data.size() >= area);
  auto ws = ResourceCache::of(dev).template lease<T>(area);
  auto& work = ws.buffer();
  const auto [f1, f2] = sy_;
  std::vector<StepTiming> steps;
  auto record = [&](const char* name, const LaunchResult& r) {
    steps.push_back(step_row<T>(name, r.total_ms, area));
  };

  auto p = RankKernelParams::tuned(tune, dev.spec(), this->desc_.dir);

  // Y axis rank 1: view (nx, 1, 1, f1, f2), transform the high digit.
  p.in_shape = Shape5{{nx, 1, 1, f1, f2}};
  {
    RankKernelT<T> k(data, work, p, /*rank1=*/true, ny, tw_y_.get());
    record("Y rank1", dev.launch(k));
  }
  // Y axis rank 2: view (nx, f2, 1, 1, f1), transform the low digit.
  p.in_shape = Shape5{{nx, f2, 1, 1, f1}};
  {
    RankKernelT<T> k(work, data, p, /*rank1=*/false);
    record("Y rank2", dev.launch(k));
  }
  // X axis: fine-grained shared-memory transform over ny lines.
  {
    FineFftKernelT<T> k(
        data, data,
        FineKernelParams::tuned(tune, dev.spec(), nx, ny, this->desc_.dir),
        tw_x_.get());
    record("X fine", dev.launch(k));
  }

  this->finish(steps);
  return steps;
}

template class BandwidthFft2DT<float>;
template class BandwidthFft2DT<double>;

}  // namespace repro::gpufft
