#include "gpufft/fft_plan.h"

#include <cstring>
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
std::vector<StepTiming> FftPlanT<T>::execute(DeviceBuffer<cx<T>>& data) {
  if (policy_.verify == VerifyPolicy::Off) return execute_impl(data);
  return execute_verified(data);
}

template <typename T>
std::vector<StepTiming> FftPlanT<T>::execute_verified(
    DeviceBuffer<cx<T>>& data) {
  Device& dev = device();
  const PlanDesc& d = desc();
  const std::size_t elems = std::min(this->buffer_elements(), data.size());
  // Retain the input host-side so a failed check can recompute; the
  // restore below is a real (timed) re-upload of the caller's data.
  const std::vector<cx<T>> input(data.data(), data.data() + elems);
  const auto spec = parseval_spec(d);
  double e_in = 0.0;
  if (policy_.verify == VerifyPolicy::Parseval && spec.has_value()) {
    e_in = side_energy<T>(input.data(), d, spec->in_hermitian);
  }
  const std::size_t points = d.shape.volume();
  auto restore = [&] { dev.h2d(data, std::span<const cx<T>>(input)); };

  for (int attempt = 1;; ++attempt) {
    std::vector<StepTiming> steps;
    double expected = 0.0;
    double observed = 0.0;
    const char* failed_check;
    try {
      steps = execute_impl(data);
      if (policy_.verify == VerifyPolicy::Parseval) {
        // A plan without a closed-form invariant passes trivially.
        if (!spec.has_value()) return steps;
        expected = spec->scale * e_in;
        observed = side_energy<T>(data.data(), d, spec->out_hermitian);
        if (parseval_ok<T>(expected, observed, points)) return steps;
        failed_check = "parseval";
      } else {
        // Full: run it again from the retained input and require the two
        // outputs to agree bitwise. Twice the time, total certainty.
        const std::vector<cx<T>> first(data.data(), data.data() + elems);
        restore();
        execute_impl(data);
        if (std::memcmp(first.data(), data.data(),
                        elems * sizeof(cx<T>)) == 0) {
          return steps;
        }
        failed_check = "full-recompute";
      }
    } catch (const sim::ResultVerificationError&) {
      // A per-pass check deep in a streamed pipeline already failed and
      // attributed the incident; recompute from the retained input.
      if (attempt >= policy_.verify_attempts) throw;
      ++recovery_counters().verify_recomputes;
      restore();
      continue;
    }
    ++dev.health().verify_failures;
    ++recovery_counters().verify_failures;
    if (attempt >= policy_.verify_attempts) {
      throw sim::ResultVerificationError(dev.device_ref(), failed_check,
                                         expected, observed, attempt);
    }
    ++recovery_counters().verify_recomputes;
    restore();
  }
}

template <typename T>
std::vector<StepTiming> FftPlanT<T>::execute_async(DeviceBuffer<cx<T>>& data,
                                                   sim::Stream& stream) {
  // Route every transfer/launch of the plan's execute() to `stream`; the
  // plan body stays oblivious, the scheduler resolves the timeline.
  const Device::StreamGuard guard(device(), stream);
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
  return total;
}

template <typename T>
std::vector<StepTiming> FftPlanT<T>::execute_host(std::span<cx<T>> data) {
  return with_plan_context(desc(), [&] {
    Device& dev = device();
    auto lease = ResourceCache::of(dev).template lease<T>(data.size());
    auto& staging = lease.buffer();
    staged_h2d(dev, staging,
               std::span<const cx<T>>(data.data(), data.size()),
               /*stream=*/nullptr, /*dst_offset=*/0, policy_.staging);
    auto steps = execute(staging);
    staged_d2h(dev, data, staging, /*stream=*/nullptr, /*src_offset=*/0,
               policy_.staging);
    return steps;
  });
}

template <typename T>
std::vector<StepTiming> FftPlanT<T>::execute_batch_host(
    std::span<const std::span<cx<T>>> volumes) {
  REPRO_CHECK(!volumes.empty());
  return with_plan_context(desc(), [&] {
    return execute_batch_host_impl(volumes);
  });
}

template <typename T>
std::vector<StepTiming> FftPlanT<T>::execute_batch_host_impl(
    std::span<const std::span<cx<T>>> volumes) {
  Device& dev = device();
  const std::size_t jobs = volumes.size();
  const std::size_t count = volumes[0].size();
  for (const auto& v : volumes) REPRO_CHECK(v.size() == count);

  // Two staging buffers, two streams: the classic double-buffered offload
  // pipeline (Section 4.4). Buffer reuse is ordered by the stream itself:
  // job i+2's upload is enqueued after job i's download on the same
  // stream, so the lease cannot be overwritten early on the timeline.
  auto& cache = ResourceCache::of(dev);
  auto lease0 = cache.template lease<T>(count);
  auto lease1 = cache.template lease<T>(jobs > 1 ? count : std::size_t{1});
  DeviceBuffer<cx<T>>* staging[2] = {&lease0.buffer(), &lease1.buffer()};
  sim::Stream stream0(dev);
  sim::Stream stream1(dev);
  sim::Stream* streams[2] = {&stream0, &stream1};

  auto upload = [&](std::size_t i) {
    staged_h2d(dev, *staging[i % 2],
               std::span<const cx<T>>(volumes[i].data(), count),
               streams[i % 2], /*dst_offset=*/0, policy_.staging);
  };

  std::vector<StepTiming> total;
  std::vector<double> traffic;
  upload(0);
  if (jobs > 1) upload(1);
  for (std::size_t i = 0; i < jobs; ++i) {
    accumulate_steps(total, traffic,
                     execute_async(*staging[i % 2], *streams[i % 2]));
    staged_d2h(dev, volumes[i], *staging[i % 2], streams[i % 2],
               /*src_offset=*/0, policy_.staging);
    if (i + 2 < jobs) upload(i + 2);
  }
  finish_accumulation(total, traffic);
  // Leaving scope destroys the streams, which folds their timelines into
  // the device clock (implicit synchronize).
  return total;
}

template class FftPlanT<float>;
template class FftPlanT<double>;
template class PlanBaseT<float>;
template class PlanBaseT<double>;

}  // namespace repro::gpufft
