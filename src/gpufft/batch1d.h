// Batched 1-D FFT plan: the paper's Table 8 workload (65536 x 256-point
// sets) as a first-class plan. Wraps the fine-grained shared-memory
// kernel (fine_kernel.h) over `count` contiguous lines of length n, with
// twiddles shared through the ResourceCache like every other plan.
#pragma once

#include "gpufft/cache.h"
#include "gpufft/fft_plan.h"
#include "gpufft/fine_kernel.h"
#include "gpufft/tuning.h"

namespace repro::gpufft {

/// In-place batched 1-D transform of `count` contiguous n-point lines
/// (n a power of two in [16, 512]).
template <typename T>
class Batch1DFftT final : public FftPlanT<T> {
 public:
  Batch1DFftT(Device& dev, std::size_t n, std::size_t count, Direction dir,
              TuneConfig options = {});

  std::vector<StepTiming> execute_impl(DeviceBuffer<cx<T>>& data) override;

  [[nodiscard]] std::size_t n() const { return this->desc_.shape.nx; }
  [[nodiscard]] std::size_t count() const { return this->desc_.shape.ny; }

 private:
  std::shared_ptr<const DeviceBuffer<cx<T>>> tw_;
};

extern template class Batch1DFftT<float>;
extern template class Batch1DFftT<double>;

using Batch1DFft = Batch1DFftT<float>;

}  // namespace repro::gpufft
