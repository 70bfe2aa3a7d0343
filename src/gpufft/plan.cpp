#include "gpufft/plan.h"

#include <type_traits>

#include "fft/factor.h"
#include "gpufft/cache.h"

namespace repro::gpufft {

template <typename T>
BandwidthFft3DT<T>::BandwidthFft3DT(Device& dev, Shape3 shape, Direction dir,
                                    TuneConfig options)
    : FftPlanT<T>(dev, PlanDesc::bandwidth3d(shape, dir), options),
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
}

template <typename T>
void run_coarse_ranks(Device& dev, DeviceBuffer<cx<T>>& data,
                      DeviceBuffer<cx<T>>& work, Shape3 shape, AxisSplit sy,
                      AxisSplit sz, const RankKernelParams& base,
                      const DeviceBuffer<cx<T>>* tw_y,
                      const DeviceBuffer<cx<T>>* tw_z,
                      const RankStepRecorder& record) {
  DeviceBuffer<cx<T>>* ping_pong[2] = {&data, &work};
  RankKernelParams p = base;
  std::size_t i = 0;
  for (const CoarseRankStep& st : coarse_rank_steps(shape, sy, sz)) {
    auto& in = *ping_pong[i % 2];
    auto& out = *ping_pong[(i + 1) % 2];
    ++i;
    p.in_shape = st.in_shape;
    RankKernelT<T> k(in, out, p, st.rank1, st.axis_n,
                     st.z_axis ? tw_z : tw_y);
    record(st.name, dev.launch(k));
  }
}

template <typename T>
std::vector<StepTiming> BandwidthFft3DT<T>::execute_impl(
    DeviceBuffer<cx<T>>& data) {
  const Shape3 shape = this->desc_.shape;
  const TuneConfig& tune = this->desc_.tune;
  Device& dev = this->dev_;
  auto ws = ResourceCache::of(dev).template lease<T>(shape.volume());
  std::vector<StepTiming> steps;
  steps.reserve(5);
  auto record = [&](const char* name, const LaunchResult& r) {
    steps.push_back(step_row<T>(
        "step" + std::to_string(steps.size() + 1) + " (" + name + ")",
        r.total_ms, shape.volume()));
  };

  // Steps 1-4: the Z/Y coarse rank pairs.
  run_coarse_ranks<T>(
      dev, data, ws.buffer(), shape, sy_, sz_,
      RankKernelParams::tuned(tune, dev.spec(), this->desc_.dir),
      tw_y_.get(), tw_z_.get(), record);

  // Step 5: X-axis fine-grained in-place transform.
  {
    FineFftKernelT<T> k(data, data,
                        FineKernelParams::tuned(tune, dev.spec(), shape.nx,
                                                shape.ny * shape.nz,
                                                this->desc_.dir),
                        tw_x_.get());
    record("X fine", dev.launch(k));
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
