// Real-input transforms (r2c / c2r) via the classic half-length packing
// trick: a real signal of even length n is packed into a complex signal of
// length n/2, transformed once, and unpacked with one twiddle pass — half
// the work of a complex transform. The forward transform returns the
// non-redundant half-spectrum X[0..n/2] (n/2+1 bins); the inverse consumes
// it and reconstructs the real signal.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/complex.h"
#include "fft/plan.h"

namespace repro::fft {

/// Forward real-to-complex plan for even power-of-two n (n >= 2).
template <typename T>
class PlanR2C {
 public:
  explicit PlanR2C(std::size_t n);

  /// Number of output bins: n/2 + 1.
  [[nodiscard]] std::size_t spectrum_size() const { return n_ / 2 + 1; }
  [[nodiscard]] std::size_t size() const { return n_; }

  /// Transform `in` (n reals) into `out` (n/2+1 bins).
  void execute(std::span<const T> in, std::span<cx<T>> out);

 private:
  std::size_t n_;
  Plan1D<T> half_plan_;
  TwiddleTable<T> tw_;        ///< forward n-th roots for the unpack pass
  std::vector<cx<T>> packed_;
};

/// Inverse complex-to-real plan; consumes the half-spectrum produced by
/// PlanR2C and returns the real signal scaled by 1 (i.e. a true inverse).
template <typename T>
class PlanC2R {
 public:
  explicit PlanC2R(std::size_t n);

  [[nodiscard]] std::size_t spectrum_size() const { return n_ / 2 + 1; }
  [[nodiscard]] std::size_t size() const { return n_; }

  /// Reconstruct `out` (n reals) from `in` (n/2+1 bins). The input's
  /// X[0] and X[n/2] must be (numerically) real, as conjugate symmetry
  /// requires.
  void execute(std::span<const cx<T>> in, std::span<T> out);

 private:
  std::size_t n_;
  Plan1D<T> half_plan_;
  TwiddleTable<T> tw_;        ///< inverse n-th roots for the pack pass
  std::vector<cx<T>> packed_;
};

extern template class PlanR2C<float>;
extern template class PlanR2C<double>;
extern template class PlanC2R<float>;
extern template class PlanC2R<double>;

/// Forward 3-D real-to-complex transform: per-row r2c along X followed by
/// complex transforms along Y and Z. Output is the non-redundant
/// half-spectrum, (nx/2+1)*ny*nz bins, in the *split* layout the device
/// real plan (gpufft/real3d.h) uses: bins kx < nx/2 in a main block with
/// row pitch nx/2 (bin (kx, ky, kz) at (kz*ny+ky)*(nx/2)+kx) and the
/// Nyquist bins kx = nx/2 in a tail plane at offset (nx/2)*ny*nz (row
/// (ky, kz) at kz*ny+ky). Each region is an ordinary volume, (nx/2, ny, nz)
/// and (1, ny, nz), so Y and Z are Plan3D's passes (plan.h) over both,
/// the host mirror of gpufft::run_real_coarse_pass. This is the
/// bit-for-bit layout reference for the device plan.
template <typename T>
class PlanR2C3D {
 public:
  explicit PlanR2C3D(Shape3 shape);

  [[nodiscard]] std::size_t spectrum_elems() const {
    return (shape_.nx / 2 + 1) * shape_.ny * shape_.nz;
  }
  [[nodiscard]] Shape3 shape() const { return shape_; }

  /// Transform `in` (nx*ny*nz reals) into `out` (spectrum_elems() bins).
  void execute(std::span<const T> in, std::span<cx<T>> out);

 private:
  Shape3 shape_;
  PlanR2C<T> row_;
  AxisFft<T> ay_;
  AxisFft<T> az_;
  std::vector<cx<T>> scratch_;  ///< the Y and Z passes' scratch
  std::vector<cx<T>> rowbuf_;   ///< dense nx/2+1 bins of one X row
};

/// Inverse of PlanR2C3D: a *true* inverse, scaled by 1/(nx*ny*nz) overall.
/// Z then Y inverse passes over both regions, each followed by its axis's
/// 1/n (Scaling::ByN per line), then the per-row c2r, itself a true
/// inverse (1/nx).
template <typename T>
class PlanC2R3D {
 public:
  explicit PlanC2R3D(Shape3 shape);

  [[nodiscard]] std::size_t spectrum_elems() const {
    return (shape_.nx / 2 + 1) * shape_.ny * shape_.nz;
  }
  [[nodiscard]] Shape3 shape() const { return shape_; }

  /// Reconstruct `out` (nx*ny*nz reals) from `in` (spectrum_elems() bins).
  void execute(std::span<const cx<T>> in, std::span<T> out);

 private:
  Shape3 shape_;
  PlanC2R<T> row_;
  AxisFft<T> ay_;
  AxisFft<T> az_;
  std::vector<cx<T>> scratch_;   ///< the Y and Z passes' scratch
  std::vector<cx<T>> rowbuf_;    ///< dense nx/2+1 bins of one X row
  std::vector<cx<T>> spectrum_;  ///< Y/Z-inverted copy of the input
};

extern template class PlanR2C3D<float>;
extern template class PlanR2C3D<double>;
extern template class PlanC2R3D<float>;
extern template class PlanC2R3D<double>;

}  // namespace repro::fft
