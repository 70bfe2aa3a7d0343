// Numerical-accuracy metrics used by tests and the verification paths of the
// examples (relative L2 error, max absolute error), plus the latency
// percentiles serving reports quote. Recovery actions are counted per
// device, in sim::DeviceHealth (sim/health.h).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/complex.h"

namespace repro {

/// Order statistic of `samples` (copied: the input is left unsorted).
/// `q` in [0, 1]; linear interpolation between ranks, so q=0.5 on an even
/// count averages the two middle samples. Empty input returns 0.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  REPRO_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

/// p50/p99/max of a latency population, the triple every serving report
/// quotes. Computed once from the full sample set (no streaming sketch:
/// the simulator's request counts are small).
struct LatencySummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::size_t count = 0;

  static LatencySummary of(const std::vector<double>& samples) {
    LatencySummary s;
    s.count = samples.size();
    if (samples.empty()) return s;
    s.p50_ms = percentile(samples, 0.5);
    s.p99_ms = percentile(samples, 0.99);
    s.max_ms = *std::max_element(samples.begin(), samples.end());
    return s;
  }
};

/// ||a - b||_2 / ||b||_2 (b is the reference). Accumulates in double.
template <typename T>
double rel_l2_error(std::span<const cx<T>> a, std::span<const cx<T>> b) {
  REPRO_CHECK(a.size() == b.size());
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double dr = static_cast<double>(a[i].re) - b[i].re;
    const double di = static_cast<double>(a[i].im) - b[i].im;
    num += dr * dr + di * di;
    den += static_cast<double>(b[i].re) * b[i].re +
           static_cast<double>(b[i].im) * b[i].im;
  }
  if (den == 0.0) {
    return std::sqrt(num);
  }
  return std::sqrt(num / den);
}

/// Error bound for an N-point FFT in precision T: c * sqrt(log2 N) * eps.
/// Standard forward-error model for Cooley-Tukey style transforms.
template <typename T>
double fft_error_bound(std::size_t n, double safety = 32.0) {
  const double eps =
      static_cast<double>(std::numeric_limits<T>::epsilon());
  const double lg = std::max(1.0, std::log2(static_cast<double>(n)));
  return safety * std::sqrt(lg) * eps;
}

}  // namespace repro
