// Shared vocabulary of the GPU FFT library.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

#include "common/complex.h"
#include "common/tensor.h"
#include "fft/twiddle.h"
#include "sim/device.h"

namespace repro::gpufft {

using fft::Direction;
using sim::Device;
using sim::DeviceBuffer;
using sim::LaunchResult;

/// The paper's Table 2 access patterns over V(256,16,16,16,16): which of
/// the four outer dimensions is the one the 16-point FFT runs along.
enum class Pattern { A = 1, B = 2, C = 3, D = 4 };

inline const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::A: return "A";
    case Pattern::B: return "B";
    case Pattern::C: return "C";
    default: return "D";
  }
}

/// Where the paper's kernels read twiddle factors from (Section 3.2).
enum class TwiddleSource {
  Registers,   ///< preloaded into per-thread registers (steps 1-4 choice)
  Constant,    ///< constant memory (32-bit broadcast per cycle)
  Texture,     ///< texture cache (step-5 choice)
  Recompute,   ///< evaluate sin/cos each time
};

/// How the X-axis transform exchanges data between threads (Table 9).
enum class ExchangeMode {
  SharedMemory,   ///< the paper's kernel (fine-grained, on-chip)
  TextureMemory,  ///< two 16-point passes, second reads through texture
  NonCoalesced,   ///< two 16-point passes, second reads strided global
};

/// Per-step timing record used by the step tables (Tables 6 and 7).
struct StepTiming {
  std::string name;
  double ms{};
  double gbs{};  ///< useful bytes (2 * volume) / time, the paper's metric
};

/// The paper's per-step bandwidth: useful traffic, one read and one write
/// of `elems` elements of `elem_bytes` each, over `ms` (bytes/ns == GB/s).
inline double useful_gbs(std::size_t elems, double ms, std::size_t elem_bytes) {
  return 2.0 * static_cast<double>(elems) * static_cast<double>(elem_bytes) /
         (ms * 1e6);
}

/// A step row of `ms` that read and wrote `elems` elements of cx<T> once
/// each (useful_gbs); a zero-time row reports zero bandwidth.
template <typename T>
StepTiming step_row(std::string name, double ms, std::size_t elems) {
  return StepTiming{std::move(name), ms,
                    ms > 0.0 ? useful_gbs(elems, ms, sizeof(cx<T>)) : 0.0};
}

/// Grid sizing used throughout the paper's experiments: 3 blocks per SM
/// (42 blocks on the 14-SM GT, 48 on the 16-SM GTS/GTX).
inline unsigned default_grid_blocks(const sim::GpuSpec& gpu) {
  return static_cast<unsigned>(3 * gpu.num_sms);
}

// kDefaultThreadsPerBlock moved to gpufft/tuning.h — the single source of
// truth for every tunable constant the plans used to hard-code.

}  // namespace repro::gpufft
