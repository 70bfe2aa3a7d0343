// Size factorization shared by the host Stockham engine and the GPU
// kernels.
//
// radix_schedule(n) is THE stage order for a 7-smooth transform length:
// stockham_multirow walks it, inside fft::AxisFft, the one line engine
// that both the host plans and the simulated Mixed3D kernel run, and the
// GPU cost model prices it stage by stage. Sizes with a prime factor
// larger than 7 take the Bluestein/chirp-z fallback (bluestein.h), whose
// internal convolution length is the power of two bluestein_length(n).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace repro::fft {

/// One Stockham rank: n = radix * l * m with m the butterfly span already
/// processed and l the remaining twiddle groups.
struct StageSpec {
  std::size_t radix;
  std::size_t l;  ///< twiddle groups
  std::size_t m;  ///< butterfly span
};

/// Greedy radix order: prefer 4 (the paper's butterfly), then 2, then the
/// odd radices. For powers of two this reproduces exactly the radix-4/2
/// decomposition the pre-mixed-radix engine used, so pow2 results are
/// unchanged bit-for-bit.
inline constexpr std::size_t kRadixPreference[] = {4, 2, 3, 5, 7};

/// Stage decomposition of a 7-smooth n (empty when n has a prime factor
/// larger than 7, or when n <= 1 — a length-1 transform has no stages).
inline std::vector<StageSpec> radix_schedule(std::size_t n) {
  std::vector<StageSpec> stages;
  if (n <= 1) return stages;
  std::size_t m = 1;
  while (m < n) {
    const std::size_t rem = n / m;
    std::size_t radix = 0;
    for (const std::size_t r : kRadixPreference) {
      if (rem % r == 0) {
        radix = r;
        break;
      }
    }
    if (radix == 0) return {};  // prime factor > 7 remains
    stages.push_back(StageSpec{radix, rem / radix, m});
    m *= radix;
  }
  return stages;
}

/// True when n factors entirely into {2, 3, 5, 7} (n >= 1).
inline bool is_7smooth(std::size_t n) {
  if (n == 0) return false;
  for (const std::size_t p : {std::size_t{2}, std::size_t{3}, std::size_t{5},
                              std::size_t{7}}) {
    while (n % p == 0) n /= p;
  }
  return n == 1;
}

/// Human-readable prime factorization, e.g. "2^3*5^3" for 1000 — used by
/// the unsupported-size error messages so the user sees *why* a size took
/// (or cannot take) a given path.
inline std::string factorization_string(std::size_t n) {
  if (n <= 1) return std::to_string(n);
  std::string s;
  std::size_t rem = n;
  for (std::size_t p = 2; p * p <= rem; p += (p == 2 ? 1 : 2)) {
    std::size_t e = 0;
    while (rem % p == 0) {
      rem /= p;
      ++e;
    }
    if (e != 0) {
      if (!s.empty()) s += '*';
      s += std::to_string(p);
      if (e > 1) s += '^' + std::to_string(e);
    }
  }
  if (rem != 1) {
    if (!s.empty()) s += '*';
    s += std::to_string(rem);
  }
  return s;
}

/// "100 (= 2^2*5^2)" — the size spelling of the error-message style the
/// odd-n r2c guards established.
inline std::string describe_size(std::size_t n) {
  return std::to_string(n) + " (= " + factorization_string(n) + ")";
}

/// Smallest power of two >= v.
inline std::size_t next_pow2_atleast(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p *= 2;
  return p;
}

/// Convolution length of the Bluestein fallback for an n-point transform:
/// the smallest power of two holding the length-(2n-1) linear correlation.
inline std::size_t bluestein_length(std::size_t n) {
  return next_pow2_atleast(2 * n - 1);
}

}  // namespace repro::fft
