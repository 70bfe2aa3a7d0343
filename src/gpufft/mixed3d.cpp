#include "gpufft/mixed3d.h"

#include <string>
#include <vector>

#include "fft/factor.h"

namespace repro::gpufft {
namespace {

/// `shape`, checked before any axis engine is built from it.
Shape3 non_empty(Shape3 shape) {
  REPRO_CHECK_MSG(
      shape.volume() >= 1,
      "Mixed3D needs a non-empty shape; got " + std::to_string(shape.nx) +
          "x" + std::to_string(shape.ny) + "x" + std::to_string(shape.nz));
  return shape;
}

}  // namespace

template <typename T>
MixedFft3DT<T>::MixedFft3DT(Device& dev, Shape3 shape, Direction dir,
                            const TuneConfig& options)
    : FftPlanT<T>(dev,
                  PlanDesc::mixed3d(non_empty(shape), dir, precision_of<T>)),
      fx_(shape.nx, dir),
      fy_(shape.ny, dir),
      fz_(shape.nz, dir) {
  desc_.tune = options;
}

template <typename T>
std::vector<StepTiming> MixedFft3DT<T>::execute_impl(DeviceBuffer<cx<T>>& data) {
  const Shape3 shape = desc_.shape;
  const std::size_t pitch = desc_.row_pitch();
  REPRO_CHECK_MSG(data.size() >= desc_.buffer_elements(),
                  "Mixed3D buffer too small: the " +
                      std::string(pitch_mode_name(desc_.tune.pitch)) +
                      " layout needs " +
                      std::to_string(desc_.buffer_elements()) + " elements");
  const unsigned grid = desc_.tune.grid_for(dev_.spec());
  std::vector<StepTiming> steps;
  const auto run_axis = [&](MixedAxis axis, const fft::AxisFft<T>& engine) {
    if (engine.size() <= 1) return;  // a length-1 axis is the identity
    MixedAxisKernelT<T> k(data, shape, pitch, axis, engine, grid,
                          desc_.tune.threads_per_block);
    const auto r = dev_.launch(k);
    const std::string name =
        std::string(mixed_axis_name(axis)) +
        (engine.uses_bluestein()
             ? " (Bluestein lines, m=" +
                   std::to_string(fft::bluestein_length(engine.size())) + ")"
             : " (mixed-radix lines)");
    steps.push_back(step_row<T>(name, r.total_ms, shape.volume()));
  };
  run_axis(MixedAxis::X, fx_);
  run_axis(MixedAxis::Y, fy_);
  run_axis(MixedAxis::Z, fz_);
  this->finish(steps);
  return steps;
}

template class MixedFft3DT<float>;
template class MixedFft3DT<double>;

}  // namespace repro::gpufft
