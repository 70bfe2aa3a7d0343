// 2-D FFT on the simulated GPU, built from the same three kernel launches
// the 3-D plan uses per axis: the Y axis as a rank-1/rank-2 16-point pair
// (reads pattern D, writes A then B) and the X axis through the
// fine-grained shared-memory kernel. Batched execution loops fields (one
// field per plan invocation keeps each launch's access patterns identical
// to the 3-D case).
#pragma once

#include <memory>

#include "fft/plan2d.h"
#include "gpufft/fft_plan.h"
#include "gpufft/plan.h"
#include "gpufft/fine_kernel.h"
#include "gpufft/rank_kernels.h"

namespace repro::gpufft {

using fft::Shape2;

/// Three-launch 2-D FFT plan (nx in [16,512], ny in [4,512], powers of 2).
template <typename T>
class BandwidthFft2DT final : public FftPlanT<T> {
 public:
  BandwidthFft2DT(Device& dev, Shape2 shape, Direction dir,
                  TuneConfig options = {});

  /// Transform one field (natural x-fastest layout) in place.
  std::vector<StepTiming> execute_impl(DeviceBuffer<cx<T>>& data) override;

  [[nodiscard]] Shape2 shape() const {
    return Shape2{this->desc_.shape.nx, this->desc_.shape.ny};
  }

 private:
  AxisSplit sy_;
  std::shared_ptr<const DeviceBuffer<cx<T>>> tw_x_;
  std::shared_ptr<const DeviceBuffer<cx<T>>> tw_y_;
};

extern template class BandwidthFft2DT<float>;
extern template class BandwidthFft2DT<double>;

using BandwidthFft2D = BandwidthFft2DT<float>;

}  // namespace repro::gpufft
