#include "fft/real.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/tensor.h"
#include "fft/factor.h"

namespace repro::fft {
namespace {

/// Validate n before any member plan is built, so a bad length fails with
/// this message rather than whichever sub-plan check trips first. The
/// even-odd split trick needs an even n; the half-length complex plan
/// handles any n/2 (mixed-radix or Bluestein).
std::size_t checked_real_size(std::size_t n, const char* plan) {
  REPRO_CHECK_MSG(n >= 2 && n % 2 == 0,
                  std::string(plan) + " needs an even size >= 2, got " +
                      describe_size(n) +
                      " — pad the real axis to an even length (the "
                      "even/odd packing halves it)");
  return n;
}

}  // namespace

template <typename T>
PlanR2C<T>::PlanR2C(std::size_t n)
    : n_(checked_real_size(n, "PlanR2C")),
      half_plan_(n / 2, Direction::Forward),
      tw_(n, Direction::Forward),
      packed_(n / 2) {}

template <typename T>
void PlanR2C<T>::execute(std::span<const T> in, std::span<cx<T>> out) {
  REPRO_CHECK(in.size() == n_);
  REPRO_CHECK(out.size() == spectrum_size());
  const std::size_t m = n_ / 2;

  // Pack even samples into the real parts, odd samples into the imaginary
  // parts, and run one half-length complex transform.
  for (std::size_t j = 0; j < m; ++j) {
    packed_[j] = {in[2 * j], in[2 * j + 1]};
  }
  half_plan_.execute(packed_);

  // Unpack: X[k] = E[k] + w_n^k * O[k], where E/O are the spectra of the
  // even/odd sample streams recovered from Z and conj(Z[m-k]).
  for (std::size_t k = 0; k <= m; ++k) {
    const cx<T> zk = packed_[k % m];
    const cx<T> zmk = packed_[(m - k) % m].conj();
    const cx<T> e = (zk + zmk) * static_cast<T>(0.5);
    const cx<T> o = ((zk - zmk) * static_cast<T>(0.5)).mul_neg_i();
    out[k] = e + tw_[k % n_] * o;
    if (k == m) {
      // w_n^m = -1 exactly; recompute to avoid table rounding at the
      // Nyquist bin (its imaginary part must vanish for real input).
      out[k] = e - o;
    }
  }
}

template <typename T>
PlanC2R<T>::PlanC2R(std::size_t n)
    : n_(checked_real_size(n, "PlanC2R")),
      half_plan_(n / 2, Direction::Inverse, Scaling::ByN),
      tw_(n, Direction::Inverse),
      packed_(n / 2) {}

template <typename T>
void PlanC2R<T>::execute(std::span<const cx<T>> in, std::span<T> out) {
  REPRO_CHECK(in.size() == spectrum_size());
  REPRO_CHECK(out.size() == n_);
  const std::size_t m = n_ / 2;

  // Re-pack the half spectrum into the half-length complex spectrum:
  // Z[k] = E[k] + i*O[k] with E/O recovered from X[k] and conj(X[m-k]).
  for (std::size_t k = 0; k < m; ++k) {
    const cx<T> xk = in[k];
    const cx<T> xmk = in[m - k].conj();
    const cx<T> e = (xk + xmk) * static_cast<T>(0.5);
    // tw_ holds inverse roots: tw_[k] == w_n^{-k} for the forward root.
    const cx<T> o = tw_[k % n_] * ((xk - xmk) * static_cast<T>(0.5));
    packed_[k] = e + o.mul_i();
  }
  half_plan_.execute(packed_);

  for (std::size_t j = 0; j < m; ++j) {
    out[2 * j] = packed_[j].re;
    out[2 * j + 1] = packed_[j].im;
  }
}

namespace {

/// Run `fft` along `axis` of both regions of `shape`'s split layout at
/// `data`: the (nx/2, ny, nz) main block, then the (1, ny, nz) Nyquist
/// tail at offset (nx/2)*ny*nz — the host mirror of
/// gpufft::run_real_coarse_pass.
template <typename T>
void split_pass(const AxisFft<T>& fft, Axis axis, Shape3 shape, cx<T>* data,
                cx<T>* scratch) {
  const Shape3 main{shape.nx / 2, shape.ny, shape.nz};
  run_pass(fft, axis, main, data, scratch);
  run_pass(fft, axis, Shape3{1, shape.ny, shape.nz}, data + main.volume(),
           scratch);
}

/// Scratch for split_pass along Y and Z. The main block's layouts span
/// at least the tail's (its pitch nx/2 is >= 1), so they size it.
template <typename T>
std::size_t split_scratch_elems(const AxisFft<T>& ay, const AxisFft<T>& az,
                                Shape3 shape) {
  const Shape3 main{shape.nx / 2, shape.ny, shape.nz};
  return std::max(ay.scratch_elems(pass_layout(Axis::Y, main)),
                  az.scratch_elems(pass_layout(Axis::Z, main)));
}

}  // namespace

template <typename T>
PlanR2C3D<T>::PlanR2C3D(Shape3 shape)
    : shape_(shape),
      row_(shape.nx),
      ay_(shape.ny, Direction::Forward),
      az_(shape.nz, Direction::Forward),
      scratch_(split_scratch_elems(ay_, az_, shape)),
      rowbuf_(shape.nx / 2 + 1) {
  // Y/Z extents are unrestricted (mixed-radix or Bluestein passes). Only
  // the real X axis must be even (checked by the PlanR2C member above).
}

template <typename T>
void PlanR2C3D<T>::execute(std::span<const T> in, std::span<cx<T>> out) {
  REPRO_CHECK(in.size() == shape_.volume());
  REPRO_CHECK(out.size() == spectrum_elems());
  const std::size_t m = shape_.nx / 2;
  const std::size_t rows = shape_.ny * shape_.nz;

  // X: per-row r2c, scattered into the split layout (bins [0, m) at the
  // row's main-block pitch, bin m into the tail plane).
  for (std::size_t r = 0; r < rows; ++r) {
    row_.execute(in.subspan(r * shape_.nx, shape_.nx),
                 std::span<cx<T>>(rowbuf_));
    std::copy(rowbuf_.begin(), rowbuf_.begin() + m, out.begin() + r * m);
    out[m * rows + r] = rowbuf_[m];
  }
  split_pass(ay_, Axis::Y, shape_, out.data(), scratch_.data());
  split_pass(az_, Axis::Z, shape_, out.data(), scratch_.data());
}

template <typename T>
PlanC2R3D<T>::PlanC2R3D(Shape3 shape)
    : shape_(shape),
      row_(shape.nx),
      ay_(shape.ny, Direction::Inverse),
      az_(shape.nz, Direction::Inverse),
      scratch_(split_scratch_elems(ay_, az_, shape)),
      rowbuf_(shape.nx / 2 + 1),
      spectrum_((shape.nx / 2 + 1) * shape.ny * shape.nz) {
  // Y/Z extents are unrestricted (mixed-radix or Bluestein passes); the
  // even-X requirement is checked by the PlanC2R member above.
}

template <typename T>
void PlanC2R3D<T>::execute(std::span<const cx<T>> in, std::span<T> out) {
  REPRO_CHECK(in.size() == spectrum_elems());
  REPRO_CHECK(out.size() == shape_.volume());
  const std::size_t m = shape_.nx / 2;
  const std::size_t rows = shape_.ny * shape_.nz;
  std::copy(in.begin(), in.end(), spectrum_.begin());

  // Z then Y inverse passes, each scaled by 1/n of its axis, then the
  // per-row c2r gathering each row's dense bins out of the split layout.
  split_pass(az_, Axis::Z, shape_, spectrum_.data(), scratch_.data());
  scale_by_n(std::span<cx<T>>(spectrum_), shape_.nz);
  split_pass(ay_, Axis::Y, shape_, spectrum_.data(), scratch_.data());
  scale_by_n(std::span<cx<T>>(spectrum_), shape_.ny);
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy(spectrum_.begin() + r * m, spectrum_.begin() + (r + 1) * m,
              rowbuf_.begin());
    rowbuf_[m] = spectrum_[m * rows + r];
    row_.execute(std::span<const cx<T>>(rowbuf_),
                 out.subspan(r * shape_.nx, shape_.nx));
  }
}

template class PlanR2C<float>;
template class PlanR2C<double>;
template class PlanC2R<float>;
template class PlanC2R<double>;
template class PlanR2C3D<float>;
template class PlanR2C3D<double>;
template class PlanC2R3D<float>;
template class PlanC2R3D<double>;

}  // namespace repro::fft
