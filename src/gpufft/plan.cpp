#include "gpufft/plan.h"

#include <algorithm>
#include <type_traits>

#include "fft/factor.h"
#include "gpufft/cache.h"

namespace repro::gpufft {

template <typename T>
BandwidthFft3DT<T>::BandwidthFft3DT(Device& dev, Shape3 shape, Direction dir,
                                    BandwidthPlanOptions options)
    : PlanBaseT<T>(dev,
                   PlanDesc::bandwidth3d(shape, dir,
                                         std::is_same_v<T, float>
                                             ? Precision::F32
                                             : Precision::F64)),
      opt_(options),
      sy_(split_axis(shape.ny, options.coarse_radix)),
      sz_(split_axis(shape.nz, options.coarse_radix)),
      tw_x_(ResourceCache::of(dev).twiddles<T>(shape.nx, dir)),
      tw_y_(ResourceCache::of(dev).twiddles<T>(shape.ny, dir)),
      tw_z_(ResourceCache::of(dev).twiddles<T>(shape.nz, dir)) {
  REPRO_CHECK_MSG(is_pow2(shape.nx) && shape.nx >= 16 && shape.nx <= 512,
                  "the five-step plan needs a power-of-two X extent in "
                  "[16, 512]; got nx=" + fft::describe_size(shape.nx) +
                      " — PlanDesc::dense3d routes such shapes to the "
                      "mixed-radix plan instead");
  REPRO_CHECK_MSG(options.executable_patterns(),
                  "only the paper's read-D/write-A coarse pattern pairing "
                  "is implemented; other pairs are model-only knobs");
  this->desc_.tune = options;
  opt_.grid_blocks = opt_.grid_for(dev.spec());
}

template <typename T>
void run_coarse_ranks(Device& dev, DeviceBuffer<cx<T>>& data,
                      DeviceBuffer<cx<T>>& work, Shape3 shape, AxisSplit sy,
                      AxisSplit sz, const RankKernelParams& base,
                      const DeviceBuffer<cx<T>>* tw_y,
                      const DeviceBuffer<cx<T>>* tw_z,
                      const RankStepRecorder& record) {
  const std::size_t ex = shape.nx;  // row pitch, any extent
  const auto [f1y, f2y] = sy;
  const auto [f1z, f2z] = sz;
  RankKernelParams p = base;

  // Step 1: Z-axis rank 1.  (ex, f1y, f2y, f1z, f2z) -> (ex, f2z, f1y, f2y, f1z)
  p.in_shape = Shape5{{ex, f1y, f2y, f1z, f2z}};
  {
    Rank1KernelT<T> k(data, work, p, shape.nz, tw_z);
    record("Z rank1", dev.launch(k));
  }

  // Step 2: Z-axis rank 2.  -> (ex, f2z, f1z, f1y, f2y)
  p.in_shape = Shape5{{ex, f2z, f1y, f2y, f1z}};
  {
    Rank2KernelT<T> k(work, data, p);
    record("Z rank2", dev.launch(k));
  }

  // Step 3: Y-axis rank 1.  -> (ex, f2y, f2z, f1z, f1y)
  p.in_shape = Shape5{{ex, f2z, f1z, f1y, f2y}};
  {
    Rank1KernelT<T> k(data, work, p, shape.ny, tw_y);
    record("Y rank1", dev.launch(k));
  }

  // Step 4: Y-axis rank 2.  -> (ex, f2y, f1y, f2z, f1z) == natural order.
  p.in_shape = Shape5{{ex, f2y, f2z, f1z, f1y}};
  {
    Rank2KernelT<T> k(work, data, p);
    record("Y rank2", dev.launch(k));
  }
}

template <typename T>
std::vector<StepTiming> BandwidthFft3DT<T>::execute_impl(
    DeviceBuffer<cx<T>>& data) {
  const Shape3 shape = this->desc_.shape;
  // >= rather than ==: the out-of-core driver reuses one oversized staging
  // buffer for differently-shaped phases.
  REPRO_CHECK(data.size() >= shape.volume());
  auto ws = ResourceCache::of(this->dev_).template lease<T>(shape.volume());
  auto& work = ws.buffer();
  const std::size_t nx = shape.nx;
  std::vector<StepTiming> steps;
  steps.reserve(5);
  auto record = [&](const char* name, const LaunchResult& r) {
    steps.push_back(StepTiming{
        "step" + std::to_string(steps.size() + 1) + " (" + name + ")",
        r.total_ms, useful_gbs(shape.volume(), r.total_ms, sizeof(cx<T>))});
  };

  RankKernelParams p;
  p.dir = this->desc_.dir;
  p.twiddles = opt_.coarse_twiddles;
  p.grid_blocks = opt_.grid_blocks;
  p.threads_per_block = opt_.threads_per_block;

  // Steps 1-4: the Z/Y coarse rank pairs.
  run_coarse_ranks<T>(this->dev_, data, work, shape, sy_, sz_, p,
                      tw_y_.get(), tw_z_.get(), record);

  // Step 5: X-axis fine-grained in-place transform.
  {
    FineKernelParams fp;
    fp.n = nx;
    fp.count = shape.ny * shape.nz;
    fp.dir = this->desc_.dir;
    fp.twiddles = opt_.fine_twiddles;
    fp.grid_blocks = opt_.grid_blocks;
    // A block must hold whole transform groups: 512-point lines need
    // 128-thread blocks (nx/4 threads per transform).
    fp.threads_per_block = static_cast<unsigned>(
        std::max<std::size_t>(nx / 4, opt_.threads_per_block));
    fp.shmem_pad_words = opt_.shmem_pad_words;
    FineFftKernelT<T> k(data, data, fp, tw_x_.get());
    record("X fine", this->dev_.launch(k));
  }

  this->finish(steps);
  return steps;
}

template <typename T>
ScaleKernelT<T>::ScaleKernelT(DeviceBuffer<cx<T>>& data, std::size_t count,
                              T factor, unsigned grid_blocks)
    : data_(data), count_(count), factor_(factor), grid_(grid_blocks) {
  REPRO_CHECK(count_ <= data_.size());
}

template <typename T>
sim::LaunchConfig ScaleKernelT<T>::config() const {
  sim::LaunchConfig c;
  c.name = "scale";
  c.grid_blocks = grid_;
  c.threads_per_block = kDefaultThreadsPerBlock;
  c.regs_per_thread = 8;
  c.total_flops = 2.0 * static_cast<double>(count_);
  c.fma_fraction = 0.0;
  c.fp64 = std::is_same_v<T, double>;
  return c;
}

template <typename T>
void ScaleKernelT<T>::run_block(sim::BlockCtx& ctx) {
  auto d = ctx.global(data_);
  ctx.threads([&](sim::ThreadCtx& t) {
    for (std::size_t i = t.global_id(); i < count_;
         i += t.total_threads()) {
      d.store(t, i, d.load(t, i) * factor_);
    }
  });
}

template void run_coarse_ranks<float>(
    Device&, DeviceBuffer<cx<float>>&, DeviceBuffer<cx<float>>&, Shape3,
    AxisSplit, AxisSplit, const RankKernelParams&,
    const DeviceBuffer<cx<float>>*, const DeviceBuffer<cx<float>>*,
    const RankStepRecorder&);
template void run_coarse_ranks<double>(
    Device&, DeviceBuffer<cx<double>>&, DeviceBuffer<cx<double>>&, Shape3,
    AxisSplit, AxisSplit, const RankKernelParams&,
    const DeviceBuffer<cx<double>>*, const DeviceBuffer<cx<double>>*,
    const RankStepRecorder&);
template class BandwidthFft3DT<float>;
template class BandwidthFft3DT<double>;
template class ScaleKernelT<float>;
template class ScaleKernelT<double>;

}  // namespace repro::gpufft
