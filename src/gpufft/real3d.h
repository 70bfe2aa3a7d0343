// Real-transform (r2c/c2r) five-step 3-D plan over the *split*
// half-spectrum layout.
//
// A real (nx, ny, nz) volume lives in (nx/2+1)*ny*nz complex elements,
// split into two regions so every row keeps a power-of-two pitch:
//
//   main block:  (nx/2)*ny*nz elements; bin (kx, ky, kz), kx < nx/2, at
//                (kz*ny + ky)*(nx/2) + kx. In time domain each x-row
//                packs its nx reals as (x[2j], x[2j+1]) in slot j.
//   tail plane:  ny*nz elements at offset (nx/2)*ny*nz; the Nyquist bin
//                kx = nx/2 of row (ky, kz) at (nx/2)*ny*nz + kz*ny + ky.
//
// Why not the dense cuFFT-style (nx/2+1)-pitch layout? The simulated G80
// coalesces a half-warp only when 16 lanes hit 16 consecutive elements
// starting at a 16-element boundary; an odd pitch misaligns every row
// after the first and turns each 8-byte access into a padded 32-byte
// transaction (4x DRAM amplification), forfeiting exactly the bandwidth
// the real transform is supposed to save. With the split layout all rank
// and fine passes coalesce as in the complex plan (for nx >= 128 where a
// half-warp fits inside one half-length row).
//
// The forward plan runs the fused r2c fine kernel along X *first* — which
// makes the Hermitian unpack local to each row — and then the ordinary
// coarse Z/Y rank pairs of the five-step plan over the (nx/2)-wide main
// pencils plus a cheap second sweep over the 1-wide Nyquist tail pencils;
// after it, the buffer holds the non-redundant half-spectrum X[0..nx/2]
// per row. The inverse runs the coarse ranks first and finishes with the
// fused c2r kernel, folding the full normalization into its pack pass so
// it is a *true* inverse (matching fft::PlanC2R's convention). Every pass
// touches (nx/2+1)/nx of the complex plan's bytes, which is the whole
// point: the plan moves ~52% of the complex traffic at 256^3.
#pragma once

#include <memory>
#include <vector>

#include "gpufft/fft_plan.h"
#include "gpufft/plan.h"
#include "gpufft/real_kernels.h"

namespace repro::gpufft {

/// Element count of the split half-spectrum buffer for a logical real
/// shape: main block + Nyquist tail plane.
[[nodiscard]] constexpr std::size_t half_spectrum_elems(Shape3 s) {
  return (s.nx / 2 + 1) * s.ny * s.nz;
}

/// Flat element index of bin (kx, ky, kz), kx <= nx/2, in the split
/// half-spectrum layout (see file comment).
[[nodiscard]] constexpr std::size_t half_spectrum_index(Shape3 s,
                                                        std::size_t kx,
                                                        std::size_t ky,
                                                        std::size_t kz) {
  const std::size_t m = s.nx / 2;
  return kx < m ? (kz * s.ny + ky) * m + kx
                : m * s.ny * s.nz + kz * s.ny + ky;
}

/// Pack a real (nx, ny, nz) volume into the split layout: slot j of each
/// main-block row holds (x[2j], x[2j+1]); the Nyquist tail plane is
/// zeroed.
template <typename T>
std::vector<cx<T>> pack_real_volume(std::span<const T> real, Shape3 shape);

/// Inverse of pack_real_volume (ignores the tail plane).
template <typename T>
std::vector<T> unpack_real_volume(std::span<const cx<T>> packed,
                                  Shape3 shape);

/// Five-step r2c/c2r 3-D plan. Plan once, execute many; twiddle tables
/// (four lengths: nx/2 stages, nx pack/unpack, ny, nz coarse) are shared
/// through the ResourceCache and the ping-pong buffer is leased per
/// execute. Direction::Forward consumes packed real rows and produces the
/// half-spectrum; Inverse is the exact round-trip (scaled, pads zeroed).
template <typename T>
class RealFft3DT final : public FftPlanT<T> {
 public:
  RealFft3DT(Device& dev, Shape3 shape, Direction dir,
             TuneConfig options = {});

  /// Transform the split half-spectrum buffer in place. `data` must hold
  /// at least buffer_elements() == (nx/2+1)*ny*nz complex elements.
  std::vector<StepTiming> execute_impl(DeviceBuffer<cx<T>>& data) override;

  [[nodiscard]] Shape3 shape() const { return this->desc_.shape; }
  [[nodiscard]] Direction direction() const { return this->desc_.dir; }

 private:
  AxisSplit sy_;
  AxisSplit sz_;
  /// Shared device twiddle tables (one per distinct length).
  std::shared_ptr<const DeviceBuffer<cx<T>>> tw_half_;  ///< nx/2 stages
  std::shared_ptr<const DeviceBuffer<cx<T>>> tw_x_;     ///< nx pack/unpack
  std::shared_ptr<const DeviceBuffer<cx<T>>> tw_y_;
  std::shared_ptr<const DeviceBuffer<cx<T>>> tw_z_;
};

extern template class RealFft3DT<float>;
extern template class RealFft3DT<double>;

/// Single-precision alias.
using RealFft3DPlan = RealFft3DT<float>;

/// The coarse Y + local-Z ranks of the real plan over one split-layout
/// slab, leasing its ping-pong buffer internally. Used by the sharded real
/// plan's *inverse* phase 1, where the c2r fine pass cannot run yet (the
/// Z axis is still decimated) but Y and the local Z ranks can.
/// `logical` is the real slab extent (nx, ny, local_nz); returns the
/// summed kernel milliseconds.
template <typename T>
double run_real_coarse_slab(Device& dev, DeviceBuffer<cx<T>>& data,
                            Shape3 logical, Direction dir,
                            const TuneConfig& opt = {});

extern template double run_real_coarse_slab<float>(
    Device&, DeviceBuffer<cx<float>>&, Shape3, Direction,
    const TuneConfig&);

}  // namespace repro::gpufft
