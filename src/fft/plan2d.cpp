#include "fft/plan2d.h"

#include <algorithm>

#include "common/check.h"

namespace repro::fft {
namespace {

/// X axis: unit-stride points, one multirow call over all rows.
MultirowLayout x_layout(Shape2 s) {
  return MultirowLayout{s.nx, 1, s.ny, s.nx};
}

/// Y axis: points stride nx, rows down x (multirow).
MultirowLayout y_layout(Shape2 s) {
  return MultirowLayout{s.ny, s.nx, s.nx, 1};
}

}  // namespace

template <typename T>
Plan2D<T>::Plan2D(Shape2 shape, Direction dir, Scaling scaling)
    : shape_(shape),
      scaling_(scaling),
      ax_(shape.nx, dir),
      ay_(shape.ny, dir),
      scratch_(std::max(ax_.scratch_elems(x_layout(shape)),
                        ay_.scratch_elems(y_layout(shape)))) {
  REPRO_CHECK_MSG(shape.area() >= 1, "Plan2D needs a non-empty shape");
}

template <typename T>
void Plan2D<T>::execute(std::span<cx<T>> data) {
  REPRO_CHECK(data.size() == shape_.area());
  cx<T>* d = data.data();
  cx<T>* s = scratch_.data();
  ax_.run(d, s, x_layout(shape_));
  ay_.run(d, s, y_layout(shape_));

  if (scaling_ == Scaling::ByN) {
    const T f = static_cast<T>(1.0 / static_cast<double>(shape_.area()));
    for (auto& z : data) z = z * f;
  }
}

template class Plan2D<float>;
template class Plan2D<double>;

}  // namespace repro::fft
