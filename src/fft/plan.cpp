#include "fft/plan.h"

#include <algorithm>

#include "common/check.h"

namespace repro::fft {

MultirowLayout pass_layout(Axis axis, Shape3 s) {
  if (axis == Axis::X) return MultirowLayout{s.nx, 1, s.ny * s.nz, s.nx};
  if (axis == Axis::Y) return MultirowLayout{s.ny, s.nx, s.nx, 1};
  return MultirowLayout{s.nz, s.nx * s.ny, s.nx * s.ny, 1};
}

template <typename T>
Plan1D<T>::Plan1D(std::size_t n, Direction dir, Scaling scaling)
    : n_(n),
      scaling_(scaling),
      axis_(n, dir),
      scratch_(axis_.scratch_elems(pass_layout(Axis::X, Shape3{n, 1, 1}))) {
  REPRO_CHECK_MSG(n >= 1, "Plan1D needs a positive size");
}

template <typename T>
void Plan1D<T>::execute(std::span<cx<T>> data, std::size_t batch) {
  REPRO_CHECK(data.size() == n_ * batch);
  const Shape3 rows{n_, batch, 1};
  const std::size_t need = axis_.scratch_elems(pass_layout(Axis::X, rows));
  if (scratch_.size() < need) scratch_.resize(need);
  run_pass(axis_, Axis::X, rows, data.data(), scratch_.data());
  if (scaling_ == Scaling::ByN) scale_by_n(data, n_);
}

template <typename T>
Plan3D<T>::Plan3D(Shape3 shape, Direction dir, Scaling scaling)
    : shape_(shape),
      scaling_(scaling),
      ax_(shape.nx, dir),
      ay_(shape.ny, dir),
      az_(shape.nz, dir),
      scratch_(std::max({ax_.scratch_elems(pass_layout(Axis::X, shape)),
                         ay_.scratch_elems(pass_layout(Axis::Y, shape)),
                         az_.scratch_elems(pass_layout(Axis::Z, shape))})) {
  REPRO_CHECK_MSG(shape.volume() >= 1, "Plan3D needs a non-empty shape");
}

template <typename T>
void Plan3D<T>::execute(std::span<cx<T>> data) {
  REPRO_CHECK(data.size() == shape_.volume());
  run_pass(ax_, Axis::X, shape_, data.data(), scratch_.data());
  run_pass(ay_, Axis::Y, shape_, data.data(), scratch_.data());
  run_pass(az_, Axis::Z, shape_, data.data(), scratch_.data());
  if (scaling_ == Scaling::ByN) scale_by_n(data, shape_.volume());
}

template class Plan1D<float>;
template class Plan1D<double>;
template class Plan3D<float>;
template class Plan3D<double>;

}  // namespace repro::fft
