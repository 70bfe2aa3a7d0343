#include "gpufft/fft_plan.h"

#include <algorithm>
#include <utility>

#include "gpufft/cache.h"
#include "gpufft/staging.h"

namespace repro::gpufft {

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
std::vector<StepTiming> FftPlanT<T>::execute_host(std::span<cx<T>> data) {
  return with_plan_context(desc_, [&] {
    auto lease = ResourceCache::of(dev_).template lease<T>(data.size());
    auto& staging = lease.buffer();
    staged_h2d(dev_, staging,
               std::span<const cx<T>>(data.data(), data.size()),
               /*stream=*/nullptr, /*dst_offset=*/0, policy_.staging);
    auto steps = execute(staging);
    staged_d2h(dev_, data, staging, /*stream=*/nullptr, /*src_offset=*/0,
               policy_.staging);
    return steps;
  });
}

template <typename T>
std::vector<StepTiming> FftPlanT<T>::execute_batch_host(
    std::span<const std::span<cx<T>>> volumes) {
  REPRO_CHECK(!volumes.empty());
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
  const std::size_t count = volumes[0].size();
  for (const auto& v : volumes) REPRO_CHECK(v.size() == count);

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
        staged_h2d(dev_, *staging[i % 2],
                   std::span<const cx<T>>(volumes[i].data(), count),
                   streams[i % 2], /*dst_offset=*/0, policy_.staging);
      },
      [&](std::size_t i) {
        accumulate_steps(total, traffic,
                         execute_async(*staging[i % 2], *streams[i % 2]));
      },
      [&](std::size_t i) {
        staged_d2h(dev_, volumes[i], *staging[i % 2], streams[i % 2],
                   /*src_offset=*/0, policy_.staging);
      });
  finish_accumulation(total, traffic);
  // Leaving scope destroys the streams, which folds their timelines into
  // the device clock (implicit synchronize).
  return total;
}

template class FftPlanT<float>;
template class FftPlanT<double>;

}  // namespace repro::gpufft
