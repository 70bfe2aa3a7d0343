#include "gpufft/plan2d.h"

#include <algorithm>

#include "fft/factor.h"
#include "gpufft/cache.h"

namespace repro::gpufft {

template <typename T>
BandwidthFft2DT<T>::BandwidthFft2DT(Device& dev, Shape2 shape, Direction dir,
                                    BandwidthPlanOptions options)
    : PlanBaseT<T>(dev,
                   PlanDesc::bandwidth2d(shape.nx, shape.ny, dir,
                                         std::is_same_v<T, float>
                                             ? Precision::F32
                                             : Precision::F64)),
      opt_(options),
      sy_(split_axis(shape.ny, options.coarse_radix)),
      tw_x_(ResourceCache::of(dev).twiddles<T>(shape.nx, dir)),
      tw_y_(ResourceCache::of(dev).twiddles<T>(shape.ny, dir)) {
  REPRO_CHECK_MSG(is_pow2(shape.nx) && shape.nx >= 16 && shape.nx <= 512,
                  "the 2-D plan needs a power-of-two X extent in [16, 512]; "
                  "got nx=" + fft::describe_size(shape.nx) +
                      " — the host fft::Plan2D accepts any size");
  REPRO_CHECK_MSG(options.executable_patterns(),
                  "only the paper's read-D/write-A coarse pattern pairing "
                  "is implemented; other pairs are model-only knobs");
  this->desc_.tune = options;
  opt_.grid_blocks = opt_.grid_for(dev.spec());
}

template <typename T>
std::vector<StepTiming> BandwidthFft2DT<T>::execute_impl(
    DeviceBuffer<cx<T>>& data) {
  const std::size_t nx = this->desc_.shape.nx;
  const std::size_t ny = this->desc_.shape.ny;
  const std::size_t area = nx * ny;
  REPRO_CHECK(data.size() >= area);
  auto ws = ResourceCache::of(this->dev_).template lease<T>(area);
  auto& work = ws.buffer();
  const auto [f1, f2] = sy_;
  std::vector<StepTiming> steps;
  auto record = [&](const char* name, const LaunchResult& r) {
    steps.push_back(StepTiming{name, r.total_ms,
                               useful_gbs(area, r.total_ms, sizeof(cx<T>))});
  };

  RankKernelParams p;
  p.dir = this->desc_.dir;
  p.twiddles = opt_.coarse_twiddles;
  p.grid_blocks = opt_.grid_blocks;
  p.threads_per_block = opt_.threads_per_block;

  // Y axis rank 1: view (nx, 1, 1, f1, f2), transform the high digit.
  p.in_shape = Shape5{{nx, 1, 1, f1, f2}};
  {
    Rank1KernelT<T> k(data, work, p, ny, tw_y_.get());
    record("Y rank1", this->dev_.launch(k));
  }
  // Y axis rank 2: view (nx, f2, 1, 1, f1), transform the low digit.
  p.in_shape = Shape5{{nx, f2, 1, 1, f1}};
  {
    Rank2KernelT<T> k(work, data, p);
    record("Y rank2", this->dev_.launch(k));
  }
  // X axis: fine-grained shared-memory transform over ny lines.
  {
    FineKernelParams fp;
    fp.n = nx;
    fp.count = ny;
    fp.dir = this->desc_.dir;
    fp.twiddles = opt_.fine_twiddles;
    fp.grid_blocks = opt_.grid_blocks;
    fp.threads_per_block = static_cast<unsigned>(
        std::max<std::size_t>(nx / 4, opt_.threads_per_block));
    fp.shmem_pad_words = opt_.shmem_pad_words;
    FineFftKernelT<T> k(data, data, fp, tw_x_.get());
    record("X fine", this->dev_.launch(k));
  }

  this->finish(steps);
  return steps;
}

template class BandwidthFft2DT<float>;
template class BandwidthFft2DT<double>;

}  // namespace repro::gpufft
