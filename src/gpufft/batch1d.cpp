#include "gpufft/batch1d.h"

#include "fft/factor.h"

namespace repro::gpufft {

template <typename T>
Batch1DFftT<T>::Batch1DFftT(Device& dev, std::size_t n, std::size_t count,
                            Direction dir, TuneConfig options)
    : FftPlanT<T>(dev, PlanDesc::batch1d(n, count, dir), options),
      tw_(ResourceCache::of(dev).twiddles<T>(n, dir)) {
  REPRO_CHECK_MSG(is_pow2(n) && n >= 16 && n <= 512,
                  "batched lines run the fine radix-4/2 kernel, so the "
                  "length must be a power of two in [16, 512]; got n=" +
                      fft::describe_size(n) +
                      " — the host fft::Plan1D's batched "
                      "execute(data, batch) accepts any size");
  REPRO_CHECK(count > 0);
}

template <typename T>
std::vector<StepTiming> Batch1DFftT<T>::execute_impl(DeviceBuffer<cx<T>>& data) {
  const std::size_t n = this->n();
  const std::size_t count = this->count();
  REPRO_CHECK(data.size() >= n * count);
  FineFftKernelT<T> k(data, data,
                      FineKernelParams::tuned(this->desc_.tune,
                                              this->dev_.spec(), n, count,
                                              this->desc_.dir),
                      tw_.get());
  const std::vector<StepTiming> steps{
      step_row<T>("batch1d (fine)", this->dev_.launch(k).total_ms, n * count)};
  this->finish(steps);
  return steps;
}

template class Batch1DFftT<float>;
template class Batch1DFftT<double>;

}  // namespace repro::gpufft
