// Bluestein/chirp-z fallback for transform lengths with a prime factor
// larger than 7, plus the per-axis router (AxisFft) the plans use.
//
// An n-point DFT is rewritten as a circular convolution of length
// m = bluestein_length(n) (a power of two):
//
//   X_k = a_k * (u (*)_m b)[k],   a_j = exp(sign*pi*i*(j^2 mod 2n)/n),
//   u_j = x_j * a_j (zero-padded to m),
//   b_t = conj(a_t) for t in [0,n),  b_{m-t} = conj(a_t) for t in [1,n).
//
// The convolution runs through the same mixed-radix Stockham engine every
// other transform uses (forward m-FFT, pointwise multiply by the
// precomputed FFT_m(b)/m, inverse m-FFT), so the only new arithmetic is
// the chirp pre/post multiply. The chirp exponent is reduced mod 2n in
// integer math before the double-precision sin/cos — for large n the naive
// j^2*pi/n argument would lose every significant bit of the angle.
//
// Both engines are immutable once built: a transform reads only tables
// fixed at construction and works in caller-provided scratch, so one
// engine may run on many threads at once. The simulated GPU's Mixed3D
// line kernel runs AxisFft itself, which is what keeps host and device
// results bit-for-bit identical.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/complex.h"
#include "fft/factor.h"
#include "fft/stockham.h"
#include "fft/twiddle.h"

namespace repro::fft {

/// Chirp-z transform engine for one (n, direction) pair. Plan once,
/// execute many (the FFTW idiom of plan.h).
template <typename T>
class Bluestein {
 public:
  Bluestein(std::size_t n, Direction dir);

  /// Transform every row of `lo` (lo.n must equal size()) in place, one
  /// row at a time through `scratch` (scratch_elems() elements).
  void execute(cx<T>* data, cx<T>* scratch, const MultirowLayout& lo) const;

  /// The zero-padded convolution line and its Stockham ping-pong
  /// partner: 2m elements, whatever the layout.
  [[nodiscard]] std::size_t scratch_elems() const { return 2 * m_; }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t conv_size() const { return m_; }
  [[nodiscard]] Direction direction() const { return dir_; }

  /// Chirp table a_j (n entries) — both the pre- and post-multiply.
  [[nodiscard]] const std::vector<cx<T>>& chirp() const { return a_; }
  /// FFT_m of the convolution kernel b, pre-scaled by 1/m so the inverse
  /// m-FFT needs no separate normalization pass (m entries).
  [[nodiscard]] const std::vector<cx<T>>& kernel_fft() const { return bf_; }

 private:
  std::size_t n_;
  std::size_t m_;
  Direction dir_;
  std::vector<cx<T>> a_;   ///< chirp, n entries
  std::vector<cx<T>> bf_;  ///< FFT_m(b)/m, m entries
  TwiddleTable<T> tw_fwd_;
  TwiddleTable<T> tw_inv_;
  std::vector<StageSpec> stages_;  ///< radix_schedule(m)
};

extern template class Bluestein<float>;
extern template class Bluestein<double>;

/// Per-axis transform engine: mixed-radix Stockham for 7-smooth lengths,
/// Bluestein for everything else. One AxisFft per axis is what turns the
/// fixed-size plans of plan.h/plan2d.h into the any-n reference library.
template <typename T>
class AxisFft {
 public:
  AxisFft(std::size_t n, Direction dir);
  AxisFft(AxisFft&&) noexcept = default;
  AxisFft& operator=(AxisFft&&) noexcept = default;

  /// Transform all rows of `lo` in place through `scratch`, which holds
  /// scratch_elems(lo) elements.
  void run(cx<T>* data, cx<T>* scratch, const MultirowLayout& lo) const;

  /// Scratch one run() over `lo` needs: the Stockham ping-pong partner,
  /// indexed like the data (the layout's whole index range), or the
  /// Bluestein convolution buffers (2 * bluestein_length(n)).
  [[nodiscard]] std::size_t scratch_elems(const MultirowLayout& lo) const;

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] Direction direction() const { return tw_.direction(); }
  [[nodiscard]] bool uses_bluestein() const { return blue_ != nullptr; }

 private:
  std::size_t n_;
  TwiddleTable<T> tw_;             ///< n-th roots (Stockham path)
  std::vector<StageSpec> stages_;  ///< radix_schedule(n) (Stockham path)
  std::unique_ptr<const Bluestein<T>> blue_;
};

extern template class AxisFft<float>;
extern template class AxisFft<double>;

}  // namespace repro::fft
