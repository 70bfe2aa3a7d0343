#include "gpufft/batch1d.h"

#include <algorithm>

#include "fft/factor.h"

namespace repro::gpufft {

template <typename T>
Batch1DFftT<T>::Batch1DFftT(Device& dev, std::size_t n, std::size_t count,
                            Direction dir, BandwidthPlanOptions options)
    : PlanBaseT<T>(dev,
                   PlanDesc::batch1d(n, count, dir,
                                     std::is_same_v<T, float>
                                         ? Precision::F32
                                         : Precision::F64)),
      opt_(options),
      tw_(ResourceCache::of(dev).twiddles<T>(n, dir)) {
  REPRO_CHECK_MSG(is_pow2(n) && n >= 16 && n <= 512,
                  "batched lines run the fine radix-4/2 kernel, so the "
                  "length must be a power of two in [16, 512]; got n=" +
                      fft::describe_size(n) +
                      " — the host fft::PlanBatch1D accepts any size");
  REPRO_CHECK(count > 0);
  REPRO_CHECK_MSG(options.executable_patterns(),
                  "only the paper's read-D/write-A coarse pattern pairing "
                  "is implemented; other pairs are model-only knobs");
  this->desc_.tune = options;
  opt_.grid_blocks = opt_.grid_for(dev.spec());
}

template <typename T>
std::vector<StepTiming> Batch1DFftT<T>::execute_impl(DeviceBuffer<cx<T>>& data) {
  const std::size_t n = this->n();
  const std::size_t count = this->count();
  REPRO_CHECK(data.size() >= n * count);

  FineKernelParams p;
  p.n = n;
  p.count = count;
  p.dir = this->desc_.dir;
  p.twiddles = opt_.fine_twiddles;
  p.grid_blocks = opt_.grid_blocks;
  p.threads_per_block = static_cast<unsigned>(
      std::max<std::size_t>(n / 4, opt_.threads_per_block));
  p.shmem_pad_words = opt_.shmem_pad_words;
  FineFftKernelT<T> k(data, data, p, tw_.get());
  const auto r = this->dev_.launch(k);

  std::vector<StepTiming> steps;
  steps.push_back(StepTiming{"batch1d (fine)", r.total_ms,
                             useful_gbs(n * count, r.total_ms, sizeof(cx<T>))});
  this->finish(steps);
  return steps;
}

template class Batch1DFftT<float>;
template class Batch1DFftT<double>;

}  // namespace repro::gpufft
