// 2-D complex-to-complex host plans (row-major x-fastest layout): Plan3D
// over an (nx, ny, 1) volume, so a 2-D transform runs the same X and Y
// passes as a 3-D one (plan.h).
#pragma once

#include <cstddef>

#include "common/tensor.h"
#include "fft/plan.h"

namespace repro::fft {

/// Shape of a 2-D field, nx fastest-varying.
struct Shape2 {
  std::size_t nx{};
  std::size_t ny{};
  [[nodiscard]] constexpr std::size_t area() const { return nx * ny; }
  [[nodiscard]] constexpr std::size_t at(std::size_t x, std::size_t y) const {
    return x + nx * y;
  }
};

/// 2-D complex-to-complex plan (any axis lengths): Plan3D over
/// (nx, ny, 1). execute() takes shape.area() elements; Scaling::ByN
/// divides by the area.
template <typename T>
class Plan2D : public Plan3D<T> {
 public:
  Plan2D(Shape2 shape, Direction dir, Scaling scaling = Scaling::None)
      : Plan3D<T>(Shape3{shape.nx, shape.ny, 1}, dir, scaling) {}
};

}  // namespace repro::fft
