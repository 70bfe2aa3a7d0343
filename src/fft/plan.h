// User-facing host FFT plans (1-D, 2-D, 3-D; float and double; any sizes).
// A plan owns its twiddle tables and scratch so repeated executions
// allocate nothing — the FFTW-style "plan once, execute many" idiom.
//
// Every plan is built from one set of axis passes over a volume (x fastest
// in memory), defined below: Plan1D's batched rows are the X pass over
// (n, batch, 1), Plan2D (plan2d.h) is Plan3D over (nx, ny, 1), and the
// split-layout real plans (real.h) run the Y and Z passes over the two
// regions of their half-spectrum.
//
// Sizes: every axis length is supported. 7-smooth lengths (factors 2/3/5/7)
// run the mixed-radix Stockham engine directly; lengths with a larger prime
// factor take the Bluestein/chirp-z fallback (bluestein.h). Both paths are
// the bit-for-bit reference the simulated GPU plans are tested against.
//
// Conventions: Forward = exp(-2*pi*i*...), unscaled. Inverse = conjugate
// kernel; Scaling::ByN divides by the transform volume so that
// inverse(forward(x)) == x.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/complex.h"
#include "common/tensor.h"
#include "fft/bluestein.h"
#include "fft/stockham.h"
#include "fft/twiddle.h"

namespace repro::fft {

/// Output scaling applied after the transform.
enum class Scaling {
  None,  ///< raw transform
  ByN,   ///< divide by the total number of points (conventional for inverse)
};

/// Scaling::ByN's scale: multiply every element by 1/n.
template <typename T>
void scale_by_n(std::span<cx<T>> data, std::size_t n) {
  const T s = static_cast<T>(1.0 / static_cast<double>(n));
  for (auto& z : data) z = z * s;
}

/// The three axes of a volume.
enum class Axis { X, Y, Z };

/// The multirow layout of one pass along `axis` of a `shape` volume. X is
/// one call over all ny*nz rows (unit-stride points). Y covers one
/// z-plane, its rows down x (unit stride) so the inner loop stays
/// sequential. Z is one call over the whole XY plane (unit-stride rows).
MultirowLayout pass_layout(Axis axis, Shape3 shape);

/// Transform every line along `axis` of the `shape` volume at `data` in
/// place with `fft` (of that axis's length), through `scratch` of
/// fft.scratch_elems(pass_layout(axis, shape)) elements. Y runs one call
/// per z-plane.
template <typename T>
void run_pass(const AxisFft<T>& fft, Axis axis, Shape3 shape, cx<T>* data,
              cx<T>* scratch) {
  const MultirowLayout lo = pass_layout(axis, shape);
  const std::size_t calls = axis == Axis::Y ? shape.nz : 1;
  for (std::size_t z = 0; z < calls; ++z) {
    fft.run(data + z * shape.nx * shape.ny, scratch, lo);
  }
}

/// 1-D complex-to-complex plan, optionally batched (contiguous rows).
template <typename T>
class Plan1D {
 public:
  Plan1D(std::size_t n, Direction dir, Scaling scaling = Scaling::None);

  /// Transform `batch` contiguous rows of length n, in place: the X pass
  /// over an (n, batch, 1) volume. Scaling::ByN divides by n.
  void execute(std::span<cx<T>> data, std::size_t batch = 1);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] Direction direction() const { return axis_.direction(); }

 private:
  std::size_t n_;
  Scaling scaling_;
  AxisFft<T> axis_;
  std::vector<cx<T>> scratch_;
};

/// 3-D complex-to-complex plan over a Shape3 volume (x fastest in memory).
template <typename T>
class Plan3D {
 public:
  Plan3D(Shape3 shape, Direction dir, Scaling scaling = Scaling::None);

  /// Transform the volume in place: the X, Y and Z passes, then
  /// Scaling::ByN's 1/volume. data.size() must equal shape.volume().
  void execute(std::span<cx<T>> data);

  [[nodiscard]] Shape3 shape() const { return shape_; }
  [[nodiscard]] Direction direction() const { return ax_.direction(); }

 private:
  Shape3 shape_;
  Scaling scaling_;
  AxisFft<T> ax_;
  AxisFft<T> ay_;
  AxisFft<T> az_;
  std::vector<cx<T>> scratch_;
};

/// Convenience one-shot helpers (plan + execute).
template <typename T>
void fft_1d_inplace(std::span<cx<T>> data, Direction dir,
                    Scaling scaling = Scaling::None) {
  Plan1D<T>(data.size(), dir, scaling).execute(data);
}

template <typename T>
void fft_3d_inplace(std::span<cx<T>> data, Shape3 shape, Direction dir,
                    Scaling scaling = Scaling::None) {
  Plan3D<T>(shape, dir, scaling).execute(data);
}

extern template class Plan1D<float>;
extern template class Plan1D<double>;
extern template class Plan3D<float>;
extern template class Plan3D<double>;

}  // namespace repro::fft
