#include "gpufft/fft_plan.h"

#include <algorithm>
#include <string>
#include <utility>

#include "gpufft/cache.h"
#include "gpufft/staging.h"

namespace repro::gpufft {
namespace {

/// Copy `rows` rows of `nx` elements from row pitch `from` to pitch `to`.
template <typename U>
void repitch(const U* src, std::size_t from, U* dst, std::size_t to,
             std::size_t nx, std::size_t rows) {
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy_n(src + r * from, nx, dst + r * to);
  }
}

}  // namespace

void accumulate_steps(std::vector<StepTiming>& total,
                      std::vector<double>& traffic,
                      const std::vector<StepTiming>& steps) {
  if (total.empty()) {
    total = steps;
    traffic.resize(steps.size());
    for (std::size_t i = 0; i < steps.size(); ++i) {
      traffic[i] = steps[i].gbs * steps[i].ms;
    }
    return;
  }
  REPRO_CHECK(steps.size() == total.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    total[i].ms += steps[i].ms;
    traffic[i] += steps[i].gbs * steps[i].ms;
  }
}

void finish_accumulation(std::vector<StepTiming>& total,
                         const std::vector<double>& traffic) {
  for (std::size_t i = 0; i < total.size(); ++i) {
    total[i].gbs = total[i].ms > 0.0 ? traffic[i] / total[i].ms : 0.0;
  }
}

template <typename T>
FftPlanT<T>::FftPlanT(Device& dev, PlanDesc desc, const TuneConfig& tune)
    : dev_(dev), desc_(std::move(desc)) {
  desc_.precision = precision_of<T>;
  desc_.tune = tune;
}

template <typename T>
std::vector<StepTiming> FftPlanT<T>::execute(DeviceBuffer<cx<T>>& data) {
  if (policy_.verify == VerifyPolicy::Off) return execute_impl(data);
  // The retained input is restored with a real (timed) re-upload.
  const std::size_t elems = std::min(buffer_elements(), data.size());
  return verified_span_run<T>(
      dev_, policy_, desc_, std::span<cx<T>>(data.data(), elems),
      [&] { return execute_impl(data); },
      [&](std::span<const cx<T>> input) { dev_.h2d(data, input); });
}

template <typename T>
std::vector<StepTiming> FftPlanT<T>::execute_async(DeviceBuffer<cx<T>>& data,
                                                   sim::Stream& stream) {
  // Route every transfer/launch of the plan's execute() to `stream`; the
  // plan body stays oblivious, the scheduler resolves the timeline.
  const Device::StreamGuard guard(dev_, stream);
  return execute(data);
}

template <typename T>
std::vector<StepTiming> FftPlanT<T>::execute_batch(
    std::span<DeviceBuffer<cx<T>>* const> volumes) {
  REPRO_CHECK(!volumes.empty());
  // One plan, one set of leased resources, volumes back-to-back. Steps of
  // every volume line up (same plan), so per-step times accumulate.
  std::vector<StepTiming> total;
  std::vector<double> traffic;  // gbs * ms accumulator per step
  for (auto* volume : volumes) {
    REPRO_CHECK(volume != nullptr);
    accumulate_steps(total, traffic, execute(*volume));
  }
  finish_accumulation(total, traffic);
  finish(total);
  return total;
}

template <typename T>
void FftPlanT<T>::check_host_volume(std::span<const cx<T>> data) const {
  REPRO_CHECK_MSG(data.size() == host_elements(),
                  "plan[" + desc_.to_string() + "] takes host volumes of " +
                      std::to_string(host_elements()) + " elements; got " +
                      std::to_string(data.size()));
}

template <typename T>
void FftPlanT<T>::stage_up(std::span<const cx<T>> data,
                           DeviceBuffer<cx<T>>& staging, sim::Stream* stream) {
  const Shape3 s = desc_.shape;
  const std::size_t pitch = desc_.row_pitch();
  if (pitch == s.nx) {
    staged_h2d(dev_, staging, data, stream, /*dst_offset=*/0,
               policy_.staging);
    return;
  }
  std::vector<cx<T>> pitched(buffer_elements(), cx<T>{0, 0});
  repitch(data.data(), s.nx, pitched.data(), pitch, s.nx, s.ny * s.nz);
  staged_h2d(dev_, staging, std::span<const cx<T>>(pitched), stream,
             /*dst_offset=*/0, policy_.staging);
}

template <typename T>
void FftPlanT<T>::stage_down(DeviceBuffer<cx<T>>& staging,
                             std::span<cx<T>> data, sim::Stream* stream) {
  const Shape3 s = desc_.shape;
  const std::size_t pitch = desc_.row_pitch();
  if (pitch == s.nx) {
    staged_d2h(dev_, data, staging, stream, /*src_offset=*/0,
               policy_.staging);
    return;
  }
  std::vector<cx<T>> pitched(buffer_elements());
  staged_d2h(dev_, std::span<cx<T>>(pitched), staging, stream,
             /*src_offset=*/0, policy_.staging);
  repitch(pitched.data(), pitch, data.data(), s.nx, s.nx, s.ny * s.nz);
}

template <typename T>
std::vector<StepTiming> FftPlanT<T>::execute_host(std::span<cx<T>> data) {
  check_host_volume(data);
  return with_plan_context(desc_, [&] {
    auto lease = ResourceCache::of(dev_).template lease<T>(buffer_elements());
    stage_up(data, lease.buffer(), /*stream=*/nullptr);
    auto steps = execute(lease.buffer());
    stage_down(lease.buffer(), data, /*stream=*/nullptr);
    return steps;
  });
}

template <typename T>
std::vector<StepTiming> FftPlanT<T>::execute_batch_host(
    std::span<const std::span<cx<T>>> volumes) {
  REPRO_CHECK(!volumes.empty());
  for (const auto& v : volumes) check_host_volume(v);
  // The steps sum per-kernel durations; the batch's cost is the
  // overlapped makespan the stream scheduler resolved.
  const double t0 = dev_.elapsed_ms();
  auto steps = with_plan_context(desc_, [&] {
    return execute_batch_host_impl(volumes);
  });
  last_total_ms_ = dev_.elapsed_ms() - t0;
  return steps;
}

template <typename T>
std::vector<StepTiming> FftPlanT<T>::execute_batch_host_impl(
    std::span<const std::span<cx<T>>> volumes) {
  const std::size_t jobs = volumes.size();
  const std::size_t count = buffer_elements();

  // Two staging buffers, two streams, one slot per job parity.
  auto& cache = ResourceCache::of(dev_);
  auto lease0 = cache.template lease<T>(count);
  auto lease1 = cache.template lease<T>(jobs > 1 ? count : std::size_t{1});
  DeviceBuffer<cx<T>>* staging[2] = {&lease0.buffer(), &lease1.buffer()};
  sim::Stream stream0(dev_);
  sim::Stream stream1(dev_);
  sim::Stream* streams[2] = {&stream0, &stream1};

  std::vector<StepTiming> total;
  std::vector<double> traffic;
  issue_double_buffered(
      jobs,
      [&](std::size_t i) {
        stage_up(volumes[i], *staging[i % 2], streams[i % 2]);
      },
      [&](std::size_t i) {
        accumulate_steps(total, traffic,
                         execute_async(*staging[i % 2], *streams[i % 2]));
      },
      [&](std::size_t i) {
        stage_down(*staging[i % 2], volumes[i], streams[i % 2]);
      });
  finish_accumulation(total, traffic);
  // Leaving scope destroys the streams, which folds their timelines into
  // the device clock (implicit synchronize).
  return total;
}

template class FftPlanT<float>;
template class FftPlanT<double>;

}  // namespace repro::gpufft
