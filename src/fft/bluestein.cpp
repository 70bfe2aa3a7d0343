#include "fft/bluestein.h"

#include <cstdint>
#include <numbers>

#include "common/check.h"

namespace repro::fft {
namespace {

/// Chirp a_j = exp(sign*pi*i*(j^2 mod 2n)/n). The mod-2n reduction runs in
/// integer math (exp has period 2*pi = pi*(2n)/n), then one double sin/cos.
template <typename T>
std::vector<cx<T>> make_chirp(std::size_t n, Direction dir) {
  const int sign = direction_sign(dir);
  std::vector<cx<T>> a(n);
  const std::uint64_t period = 2 * static_cast<std::uint64_t>(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t jj = static_cast<std::uint64_t>(j) *
                             static_cast<std::uint64_t>(j) % period;
    const double theta = sign * std::numbers::pi *
                         static_cast<double>(jj) / static_cast<double>(n);
    a[j] = polar_unit<T>(theta);
  }
  return a;
}

}  // namespace

template <typename T>
Bluestein<T>::Bluestein(std::size_t n, Direction dir)
    : n_(n),
      m_(bluestein_length(n)),
      dir_(dir),
      a_(make_chirp<T>(n, dir)),
      bf_(m_),
      tw_fwd_(m_, Direction::Forward),
      tw_inv_(m_, Direction::Inverse),
      stages_(radix_schedule(m_)) {
  REPRO_CHECK_MSG(n >= 2, "Bluestein needs n >= 2, got " + std::to_string(n));
  // Kernel b: the chirp conjugate laid out circularly (negative indices
  // wrap to the top of the length-m buffer), then its spectrum scaled by
  // 1/m so the inverse convolution FFT needs no extra pass.
  std::vector<cx<T>> b(m_, cx<T>{0, 0});
  for (std::size_t t = 0; t < n_; ++t) {
    b[t] = a_[t].conj();
    if (t != 0) b[m_ - t] = a_[t].conj();
  }
  std::vector<cx<T>> partner(m_);
  stockham_multirow<T>(b.data(), partner.data(),
                       MultirowLayout{m_, 1, 1, m_}, tw_fwd_, stages_);
  const T inv_m = static_cast<T>(1.0 / static_cast<double>(m_));
  for (std::size_t i = 0; i < m_; ++i) bf_[i] = b[i] * inv_m;
}

template <typename T>
void Bluestein<T>::execute(cx<T>* data, cx<T>* scratch,
                           const MultirowLayout& lo) const {
  REPRO_CHECK(lo.n == n_);
  const MultirowLayout conv{m_, 1, 1, m_};
  cx<T>* work = scratch;          // m-length convolution line
  cx<T>* partner = scratch + m_;  // its Stockham ping-pong partner
  for (std::size_t row = 0; row < lo.nrows; ++row) {
    const std::size_t ro = row * lo.row_stride;
    // Pre-multiply by the chirp into the zero-padded convolution buffer.
    for (std::size_t j = 0; j < n_; ++j) {
      work[j] = data[ro + j * lo.point_stride] * a_[j];
    }
    for (std::size_t j = n_; j < m_; ++j) work[j] = cx<T>{0, 0};
    // Circular convolution with b through the pow2 Stockham engine.
    stockham_multirow<T>(work, partner, conv, tw_fwd_, stages_);
    for (std::size_t i = 0; i < m_; ++i) work[i] = work[i] * bf_[i];
    stockham_multirow<T>(work, partner, conv, tw_inv_, stages_);
    // Post-multiply by the chirp and scatter back.
    for (std::size_t k = 0; k < n_; ++k) {
      data[ro + k * lo.point_stride] = work[k] * a_[k];
    }
  }
}

template <typename T>
AxisFft<T>::AxisFft(std::size_t n, Direction dir)
    : n_(n), tw_(n, dir), stages_(radix_schedule(n)) {
  if (!is_7smooth(n)) {
    blue_ = std::make_unique<const Bluestein<T>>(n, dir);
  }
}

template <typename T>
std::size_t AxisFft<T>::scratch_elems(const MultirowLayout& lo) const {
  if (blue_) return blue_->scratch_elems();
  if (lo.nrows == 0) return 0;
  return (lo.nrows - 1) * lo.row_stride + (lo.n - 1) * lo.point_stride + 1;
}

template <typename T>
void AxisFft<T>::run(cx<T>* data, cx<T>* scratch,
                     const MultirowLayout& lo) const {
  REPRO_CHECK(lo.n == n_);
  if (blue_) {
    blue_->execute(data, scratch, lo);
  } else {
    stockham_multirow<T>(data, scratch, lo, tw_, stages_);
  }
}

template class Bluestein<float>;
template class Bluestein<double>;
template class AxisFft<float>;
template class AxisFft<double>;

}  // namespace repro::fft
