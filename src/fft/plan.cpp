#include "fft/plan.h"

#include <algorithm>

#include "common/check.h"

namespace repro::fft {
namespace {

template <typename T>
void scale_all(std::span<cx<T>> data, std::size_t n_points) {
  const T s = static_cast<T>(1.0 / static_cast<double>(n_points));
  for (auto& z : data) {
    z = z * s;
  }
}

// The three axis passes of a volume (x fastest in memory).

/// X: points unit-stride, one multirow call over all ny*nz lines.
MultirowLayout x_layout(Shape3 s) {
  return MultirowLayout{s.nx, 1, s.ny * s.nz, s.nx};
}

/// Y, one z-plane per call: points stride nx, rows down x (unit stride) —
/// the classic multirow pattern that keeps the inner loop sequential.
MultirowLayout y_layout(Shape3 s) {
  return MultirowLayout{s.ny, s.nx, s.nx, 1};
}

/// Z: points stride nx*ny, rows over the whole XY plane (unit stride).
MultirowLayout z_layout(Shape3 s) {
  return MultirowLayout{s.nz, s.nx * s.ny, s.nx * s.ny, 1};
}

}  // namespace

template <typename T>
Plan1D<T>::Plan1D(std::size_t n, Direction dir, Scaling scaling)
    : n_(n),
      scaling_(scaling),
      axis_(n, dir),
      scratch_(axis_.scratch_elems(MultirowLayout{n, 1, 1, n})) {
  REPRO_CHECK_MSG(n >= 1, "Plan1D needs a positive size");
}

template <typename T>
void Plan1D<T>::execute(std::span<cx<T>> data, std::size_t batch) {
  REPRO_CHECK(data.size() == n_ * batch);
  // All rows advance together: rows are the unit-stride dimension only when
  // n_ is the stride between them, so here each row is a separate transform
  // batched via the multirow row loop (row_stride = n).
  const MultirowLayout lo{n_, /*point_stride=*/1, /*nrows=*/batch,
                          /*row_stride=*/n_};
  if (scratch_.size() < axis_.scratch_elems(lo)) {
    scratch_.resize(axis_.scratch_elems(lo));
  }
  axis_.run(data.data(), scratch_.data(), lo);
  if (scaling_ == Scaling::ByN) {
    scale_all(data, n_);
  }
}

template <typename T>
Plan3D<T>::Plan3D(Shape3 shape, Direction dir, Scaling scaling)
    : shape_(shape),
      scaling_(scaling),
      ax_(shape.nx, dir),
      ay_(shape.ny, dir),
      az_(shape.nz, dir),
      scratch_(std::max({ax_.scratch_elems(x_layout(shape)),
                         ay_.scratch_elems(y_layout(shape)),
                         az_.scratch_elems(z_layout(shape))})) {
  REPRO_CHECK_MSG(shape.volume() >= 1, "Plan3D needs a non-empty shape");
}

template <typename T>
void Plan3D<T>::execute(std::span<cx<T>> data) {
  REPRO_CHECK(data.size() == shape_.volume());
  cx<T>* d = data.data();
  cx<T>* s = scratch_.data();
  ax_.run(d, s, x_layout(shape_));
  for (std::size_t z = 0; z < shape_.nz; ++z) {
    ay_.run(d + z * shape_.nx * shape_.ny, s, y_layout(shape_));
  }
  az_.run(d, s, z_layout(shape_));

  if (scaling_ == Scaling::ByN) {
    scale_all(data, shape_.volume());
  }
}

template class Plan1D<float>;
template class Plan1D<double>;
template class Plan3D<float>;
template class Plan3D<double>;

}  // namespace repro::fft
