// On-card 3-D convolution/correlation (Section 4.4).
//
// The paper's answer to the PCIe bottleneck is application confinement:
// keep the working set on the card, run FFT -> pointwise multiply ->
// inverse FFT -> score reduction there, and ship only the small result
// back. This module implements that pipeline; the ZDock-style docking
// application in src/apps/zdock is built on it.
#pragma once

#include <memory>

#include "gpufft/fft_plan.h"
#include "gpufft/plan.h"
#include "gpufft/types.h"

namespace repro::gpufft {

/// out[i] = a[i] * b[i], or a[i] * conj(b[i]) for correlation.
class PointwiseMultiplyKernel final : public sim::Kernel {
 public:
  PointwiseMultiplyKernel(DeviceBuffer<cxf>& a, DeviceBuffer<cxf>& b,
                          DeviceBuffer<cxf>& out, std::size_t count,
                          bool conjugate_b, unsigned grid_blocks);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cxf>& a_;
  DeviceBuffer<cxf>& b_;
  DeviceBuffer<cxf>& out_;
  std::size_t count_;
  bool conj_b_;
  unsigned grid_;
};

/// Per-block argmax over a score volume of logical extent `shape`; each
/// block writes one (value, index) candidate so the host only reads back
/// grid_blocks entries — the "small data about the best docking
/// positions" of Section 4.4. In Layout::Complex the scores are the real
/// parts of shape.volume() elements. In Layout::RealHalfSpectrum the
/// volume is *packed real* in the split layout (real3d.h): main-block slot
/// j of row r holds scores x[r*nx + 2j] in .re and x[r*nx + 2j + 1] in
/// .im, so each candidate carries its reconstructed real linear index,
/// and the Nyquist tail plane (no time-domain data) is skipped.
class ArgmaxKernel final : public sim::Kernel {
 public:
  ArgmaxKernel(DeviceBuffer<cxf>& data, Shape3 shape, Layout layout,
               DeviceBuffer<cxf>& partial, unsigned grid_blocks);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;

 private:
  DeviceBuffer<cxf>& data_;
  Shape3 shape_;                ///< logical extent
  Layout layout_;
  DeviceBuffer<cxf>& partial_;  ///< re = best value, im = index as float
  unsigned grid_;
};

/// Best translation found by a correlation pass.
struct BestMatch {
  std::size_t index{};  ///< linear index into the volume
  float score{};
};

/// FFT-based circular convolution/correlation engine with a resident
/// filter. All heavy data stays on the device between calls. As an
/// FftPlan, execute() correlates a device-resident signal against the
/// resident filter in place (FFT, conjugate multiply, inverse FFT, and —
/// in Complex layout — a 1/N scale); the forward/inverse sub-plans are
/// shared through the PlanRegistry. Stateful (the filter), so the
/// registry never constructs one — build it directly and set_filter()
/// before executing.
///
/// With Layout::RealHalfSpectrum the engine runs on the r2c/c2r plans
/// over the split half-spectrum layout instead: real-valued grids, ~half
/// the device traffic per pass, and no separate scale pass (the c2r
/// inverse is a true inverse). Use the *_real entry points; the product
/// of two Hermitian half-spectra is Hermitian, so the conjugate multiply
/// needs only the stored (nx/2+1)*ny*nz bins.
class Convolution3D final : public FftPlanT<float> {
 public:
  Convolution3D(Device& dev, Shape3 shape, Layout layout = Layout::Complex);

  /// Upload and forward-transform the filter (done once per filter).
  void set_filter(std::span<const cxf> filter);

  /// Real-layout filter upload: packs `filter` (shape.volume() reals)
  /// into the split layout and r2c-transforms it.
  void set_filter_real(std::span<const float> filter);

  /// In-place correlation of a device-resident signal against the
  /// resident filter: leaves the score volume in `data`.
  std::vector<StepTiming> execute_impl(DeviceBuffer<cxf>& data) override;

  /// Correlate `signal` against the resident filter and return the full
  /// score volume (downloads the whole volume: the non-confined path).
  std::vector<cxf> correlate(std::span<const cxf> signal);

  /// Real-layout correlate: returns the real score volume.
  std::vector<float> correlate_real(std::span<const float> signal);

  /// Confined path: correlate and return only the best translation.
  BestMatch best_translation(std::span<const cxf> signal);

  /// Real-layout confined path; BestMatch.index is the real linear index.
  BestMatch best_translation_real(std::span<const float> signal);

  [[nodiscard]] Shape3 shape() const { return desc_.shape; }
  [[nodiscard]] Layout layout() const { return desc_.layout; }

 private:
  /// Shared pipeline: leaves the score volume in signal_.
  void correlate_on_device(std::span<const cxf> signal);
  void correlate_real_on_device(std::span<const float> signal);
  /// Argmax launch over the score volume in signal_, then the host's
  /// reduction of the per-block candidates.
  BestMatch reduce_candidates();

  unsigned grid_;
  DeviceBuffer<cxf> filter_hat_;
  DeviceBuffer<cxf> signal_;
  DeviceBuffer<cxf> partial_;
  std::shared_ptr<FftPlan> fwd_;
  std::shared_ptr<FftPlan> inv_;
  bool filter_set_ = false;
};

}  // namespace repro::gpufft
