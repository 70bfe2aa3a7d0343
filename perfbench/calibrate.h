// Host-speed calibration: a fixed piece of benchmark-owned work whose time
// tracks how fast the machine runs the simulator at the moment.
//
// On a shared host the simulator's wall time for identical launches drifts
// by tens of percent over minutes. Measured on a 4-vCPU VM over 400
// interleaved samples: 25-sample medians of one 128x64x64 launch varied
// with a CV of 10%; divided by this loop's time, with a CV of 5.4%
// (correlation 0.87). The loop is branchy integer work on an L1-resident
// table: it allocates nothing, so the library's heap state cannot move
// it, and it uses nothing from src/. perfbench times it around every
// set-up batch and round and scales host times by
// kCalibrationReferenceS / measured.
#pragma once

#include <algorithm>
#include <cstdint>

#include "trace.h"

namespace perfbench {

/// Median calibration time on the 4-vCPU VM the benchmark was defined on;
/// scaled host times read as seconds at that machine's typical speed.
inline constexpr double kCalibrationReferenceS = 0.03;

/// One timed pass of the calibration loop, in seconds.
inline double calibration_pass_s() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  std::uint32_t table[256] = {};
  for (int i = 0; i < (1 << 23); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 255] += static_cast<std::uint32_t>(x >> 40) & 7;
    if (table[(x >> 8) & 255] & 1) {
      acc += x;
    } else {
      acc ^= x >> 3;
    }
  }
  static volatile std::uint64_t sink = 0;
  sink = sink + acc + table[0];
  return seconds_since(t0);
}

/// Median of three passes: the machine's current speed, in seconds of
/// calibration work.
inline double calibration_s() {
  double s[3] = {calibration_pass_s(), calibration_pass_s(),
                 calibration_pass_s()};
  std::sort(s, s + 3);
  return s[1];
}

}  // namespace perfbench
