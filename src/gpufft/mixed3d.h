// Arbitrary-size 3-D FFT plan: mixed-radix line kernels with a Bluestein
// fallback per axis.
//
// The paper's five-step executor is locked to pow2 extents by its coarse
// f1*f2 split and its fine kernel's radix-4/2 stages. This plan lifts that
// restriction: each axis is transformed by one MixedAxisKernelT pass whose
// threads run the host reference's per-axis engine, fft::AxisFft, on one
// line each — mixed-radix Stockham (radix 2/3/4/5/7) for 7-smooth
// lengths, the Bluestein chirp-z transform otherwise. Host and device
// share that one engine, so they agree bit-for-bit for every size.
//
// Non-pow2 rows misalign G80's 128-byte coalescing segments; whether to
// pad each row up to a 16-element boundary (TuneConfig::pitch) is a
// planner decision, scored against the simulator's coalescing model. The
// kernels only change addresses between the two layouts, so results are
// identical elementwise. Host volumes stay dense either way: FftPlanT's
// host staging re-pitches the rows on the way up and back.
#pragma once

#include "gpufft/fft_plan.h"
#include "gpufft/rank_kernels.h"

namespace repro::gpufft {

/// Arbitrary-size dense 3-D transform (PlanKind::Mixed3D).
template <typename T>
class MixedFft3DT final : public FftPlanT<T> {
 public:
  MixedFft3DT(Device& dev, Shape3 shape, Direction dir,
              const TuneConfig& options = {});

  std::vector<StepTiming> execute_impl(DeviceBuffer<cx<T>>& data) override;

  /// Element pitch between consecutive X rows (the tuned layout).
  [[nodiscard]] std::size_t row_pitch() const { return this->desc_.row_pitch(); }

 private:
  using FftPlanT<T>::desc_;
  using FftPlanT<T>::dev_;

  fft::AxisFft<T> fx_;
  fft::AxisFft<T> fy_;
  fft::AxisFft<T> fz_;
};

extern template class MixedFft3DT<float>;
extern template class MixedFft3DT<double>;

using MixedFft3D = MixedFft3DT<float>;

}  // namespace repro::gpufft
