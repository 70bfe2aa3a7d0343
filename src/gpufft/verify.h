// ABFT-style result verification for FFT plans — the silent-data-corruption
// backstop.
//
// PR 5's checksummed staging catches payloads corrupted on the PCIe wire,
// but a kernel that runs, claims success, and stores a wrong value passes
// every transfer-level check (sim/fault.h FaultKind::KernelCorrupt models
// exactly that). The defense is an algorithm-based invariant checked on the
// transform's own output:
//
//   VerifyPolicy::Off       no checks, no snapshots — bit-identical in
//                           results AND timeline to a build without the
//                           verification layer (bench_fault_overhead pins
//                           this through the plan wrapper's early-out)
//   VerifyPolicy::Parseval  energy conservation. An unnormalized DFT obeys
//                           Σ|X|² = N·Σ|x|² (Parseval's theorem), and every
//                           plan kind here is a composition of such DFTs
//                           with unit-modulus twiddle factors, so the
//                           end-to-end energy ratio is a closed-form
//                           constant of the PlanDesc (parseval_spec below).
//                           The check costs one host-side pass over the
//                           buffer per side — zero simulated time.
//   VerifyPolicy::Full      execute twice, compare bitwise. Catches any
//                           corruption at 2x cost; used by the health
//                           layer's probe transforms, where certainty
//                           matters more than speed.
//
// A failed check triggers a bounded recompute from the retained input
// (ExecPolicy::verify_attempts, StagePolicy-style) before surfacing a
// typed sim::ResultVerificationError; a recovered run's results are
// bit-identical to an undisturbed run (the simulator is deterministic).
// Failures and recomputes are counted once, on the executing device's
// DeviceHealth ledger (sim/health.h) — the quarantine sweep's raw
// material. Every entry point runs the same loop, verified_span_run.
//
// Why energy catches the injected corruption reliably: KernelCorrupt
// scales one element by 2^40 (sim/kernel.h), an energy excursion of ~2^80
// — about 24 decimal orders above any legitimate rounding drift — so the
// generous tolerance below cannot false-negative on it, while legitimate
// runs sit inside the fft_error_bound-derived tolerance with equal margin.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/metrics.h"
#include "gpufft/plan_desc.h"
#include "gpufft/staging.h"
#include "gpufft/types.h"
#include "sim/errors.h"

namespace repro::gpufft {

enum class VerifyPolicy {
  Off,       ///< no verification (the default; zero overhead)
  Parseval,  ///< energy-conservation check per execute
  Full,      ///< duplicate execution + bitwise compare
};

/// Per-execute options a caller (or serve::ServiceConfig) can set on any
/// plan: the verification policy and the staging-retry policy. Carried on
/// the plan object (FftPlanT::set_exec_policy), not the PlanDesc — two
/// callers sharing one registry plan may verify differently without
/// splitting the plan cache.
struct ExecPolicy {
  VerifyPolicy verify = VerifyPolicy::Off;
  /// Total executions (first try + recomputes) before a failed check
  /// surfaces as ResultVerificationError.
  int verify_attempts = 2;
  /// Bounds for the staged-transfer recovery loops (gpufft/staging.h).
  StagePolicy staging;
};

/// Validate caller-supplied policy fields; throws sim::InvalidPolicyError
/// naming the offending field before any work runs.
inline void validate_policy(const ExecPolicy& p) {
  if (p.staging.max_attempts < 1) {
    throw sim::InvalidPolicyError(
        "StagePolicy.max_attempts",
        "must be >= 1, got " + std::to_string(p.staging.max_attempts));
  }
  if (p.verify_attempts < 1) {
    throw sim::InvalidPolicyError(
        "ExecPolicy.verify_attempts",
        "must be >= 1, got " + std::to_string(p.verify_attempts));
  }
}

/// The closed-form energy invariant of one plan kind: which energy
/// functional applies to each side and the scale relating them,
/// E_out = scale * E_in. `hermitian` selects the half-spectrum weighting
/// (2*E_main - E_{kx=0} + E_tail), which reconstructs the full-spectrum
/// energy from the non-redundant half the real plans store.
struct ParsevalSpec {
  double scale = 1.0;
  bool in_hermitian = false;
  bool out_hermitian = false;
};

/// The invariant for `desc`, or nullopt when the plan has no closed-form
/// one (Convolution multiplies spectra pointwise — its output energy is
/// data-dependent; use VerifyPolicy::Full there).
inline std::optional<ParsevalSpec> parseval_spec(const PlanDesc& desc) {
  if (desc.kind == PlanKind::Convolution) return std::nullopt;
  const double volume = static_cast<double>(desc.shape.volume());
  if (desc.layout == Layout::RealHalfSpectrum) {
    // r2c forward: packed reals in, half-spectrum out, unnormalized —
    // weighted output energy equals N * ||x||^2. The c2r inverse folds
    // the full 1/N normalization (a *true* inverse, real3d.h), so the
    // relation flips to 1/N.
    if (desc.dir == Direction::Forward) {
      return ParsevalSpec{volume, false, true};
    }
    return ParsevalSpec{1.0 / volume, true, false};
  }
  // Complex-to-complex plans are unnormalized in both directions (the
  // host reference's Scaling::None convention). Batch1D transforms
  // shape.ny independent lines of length shape.nx, so each line — and
  // hence the sum — scales by nx, not by the buffer volume.
  const double scale = desc.kind == PlanKind::Batch1D
                           ? static_cast<double>(desc.shape.nx)
                           : volume;
  return ParsevalSpec{scale, false, false};
}

/// Σ|x|² over the logical elements of a buffer in `desc`'s layout,
/// accumulated in double. Pad lanes of a padded-pitch row (Mixed3D) are
/// excluded — the kernels leave garbage there by design.
template <typename T>
double plain_energy(const cx<T>* data, const PlanDesc& desc) {
  double e = 0.0;
  if (desc.layout == Layout::RealHalfSpectrum) {
    // The plain side of a real transform is the packed real volume, which
    // occupies the main region only: the Nyquist tail plane carries
    // spectrum bins on the hermitian side and scratch on the c2r output,
    // so it must not count toward ||x||^2.
    const std::size_t n = (desc.shape.nx / 2) * desc.shape.ny * desc.shape.nz;
    for (std::size_t i = 0; i < n; ++i) {
      e += static_cast<double>(data[i].re) * data[i].re +
           static_cast<double>(data[i].im) * data[i].im;
    }
    return e;
  }
  const std::size_t pitch = desc.row_pitch();
  const std::size_t nx = desc.shape.nx;
  const std::size_t rows = desc.shape.ny * desc.shape.nz;
  for (std::size_t r = 0; r < rows; ++r) {
    const cx<T>* row = data + r * pitch;
    for (std::size_t i = 0; i < nx; ++i) {
      e += static_cast<double>(row[i].re) * row[i].re +
           static_cast<double>(row[i].im) * row[i].im;
    }
  }
  return e;
}

/// Full-spectrum energy reconstructed from a split half-spectrum buffer
/// (real3d.h layout): interior bins 0 < kx < nx/2 appear once but stand
/// for a conjugate pair, the kx = 0 column and the Nyquist tail plane
/// appear once and stand for themselves.
template <typename T>
double hermitian_energy(const cx<T>* data, Shape3 s) {
  const std::size_t m = s.nx / 2;
  const std::size_t rows = s.ny * s.nz;
  double e_main = 0.0;
  double e_dc = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const cx<T>* row = data + r * m;
    e_dc += static_cast<double>(row[0].re) * row[0].re +
            static_cast<double>(row[0].im) * row[0].im;
    for (std::size_t i = 0; i < m; ++i) {
      e_main += static_cast<double>(row[i].re) * row[i].re +
                static_cast<double>(row[i].im) * row[i].im;
    }
  }
  double e_tail = 0.0;
  const cx<T>* tail = data + m * rows;
  for (std::size_t i = 0; i < rows; ++i) {
    e_tail += static_cast<double>(tail[i].re) * tail[i].re +
              static_cast<double>(tail[i].im) * tail[i].im;
  }
  return 2.0 * e_main - e_dc + e_tail;
}

/// Energy of one side of the transform under `spec`'s weighting.
template <typename T>
double side_energy(const cx<T>* data, const PlanDesc& desc, bool hermitian) {
  return hermitian ? hermitian_energy<T>(data, desc.shape)
                   : plain_energy<T>(data, desc);
}

/// Relative tolerance for the Parseval comparison. Generous on purpose:
/// the transform's own rounding obeys fft_error_bound (an L2 bound on the
/// values, so ~2x that on energies) and the host-side double accumulation
/// adds ~n*eps in the worst case; a real corruption overshoots this by
/// tens of orders of magnitude, so slack costs no detection power.
template <typename T>
double parseval_tolerance(std::size_t n) {
  const double accum =
      64.0 * static_cast<double>(n) * std::numeric_limits<double>::epsilon();
  return std::max(1024.0 * fft_error_bound<T>(n), accum);
}

/// One Parseval comparison: does `observed` match `expected` within the
/// tolerance for an n-element transform? Non-finite observed energy (a
/// corrupted element overflowed to inf/nan) always fails.
template <typename T>
bool parseval_ok(double expected, double observed, std::size_t n) {
  if (!std::isfinite(observed)) return false;
  const double tol = parseval_tolerance<T>(n);
  return std::abs(observed - expected) <= tol * std::max(expected, 1e-300);
}

/// Scale-free per-pass guard for streamed/sharded phase loops, checked
/// where a shard's intermediate lands (before the all-to-all propagates
/// it). Any composition of DFT passes over a volume of N points scales
/// energy by at most N (each radix-R stage scales by exactly R, modulus-1
/// twiddles by 1), so a pass output obeying E_out <= 4N * E_in is
/// plausible while a 2^40-scaled element is not. Catches gross corruption
/// with per-device attribution without needing the pass's exact algebra.
inline bool pass_energy_plausible(double e_in, double e_out,
                                  std::size_t total_points) {
  if (!std::isfinite(e_out)) return false;
  return e_out <= 4.0 * static_cast<double>(total_points) *
                      std::max(e_in, 1e-300);
}

/// Σ|x|² of a raw span (the pass checks' energy functional over staged
/// slab regions), accumulated in double.
template <typename T>
double span_energy(std::span<const cx<T>> data) {
  double e = 0.0;
  for (const auto& v : data) {
    e += static_cast<double>(v.re) * v.re + static_cast<double>(v.im) * v.im;
  }
  return e;
}

/// Record a failed per-pass check against the device that produced the
/// pass and throw the typed error. The execute-level wrapper catches it
/// for the bounded recompute, so the precise per-device attribution made
/// here survives even when the end-to-end retry succeeds.
[[noreturn]] inline void fail_pass_check(Device& dev, const char* check,
                                         double expected, double observed) {
  ++dev.health().verify_failures;
  throw sim::ResultVerificationError(dev.device_ref(), check, expected,
                                     observed, 1);
}

/// The one ExecPolicy verify/recompute loop, shared by every plan entry
/// point. `run` executes the plan body over `data` in place and returns
/// its timing object; `restore(input)` puts the retained input back into
/// the plan's input — a timed re-upload for a device buffer
/// (FftPlanT::execute), a host copy for a host span (out-of-core,
/// sharded: the rerun re-stages it through the timed transfer path
/// itself). `dev` takes the attribution when the failure was not already
/// pinned to a specific member by a per-pass check, and is charged every
/// recompute.
template <typename T, typename Run, typename Restore>
auto verified_span_run(Device& dev, const ExecPolicy& policy,
                       const PlanDesc& desc, std::span<cx<T>> data, Run&& run,
                       Restore&& restore) -> std::invoke_result_t<Run&> {
  if (policy.verify == VerifyPolicy::Off) return run();
  const std::vector<cx<T>> input(data.begin(), data.end());
  const auto spec = parseval_spec(desc);
  double e_in = 0.0;
  if (policy.verify == VerifyPolicy::Parseval && spec.has_value()) {
    e_in = side_energy<T>(input.data(), desc, spec->in_hermitian);
  }
  const std::size_t points = desc.shape.volume();
  const auto recompute = [&] {
    ++dev.health().verify_recomputes;
    restore(std::span<const cx<T>>(input));
  };

  for (int attempt = 1;; ++attempt) {
    double expected = 0.0;
    double observed = 0.0;
    const char* failed_check;
    try {
      auto result = run();
      if (policy.verify == VerifyPolicy::Parseval) {
        // A plan without a closed-form invariant passes trivially.
        if (!spec.has_value()) return result;
        expected = spec->scale * e_in;
        observed = side_energy<T>(data.data(), desc, spec->out_hermitian);
        if (parseval_ok<T>(expected, observed, points)) return result;
        failed_check = "parseval";
      } else {
        // Full: run it again from the retained input and require the two
        // outputs to agree bitwise. Twice the time, total certainty.
        const std::vector<cx<T>> first(data.begin(), data.end());
        restore(std::span<const cx<T>>(input));
        run();
        if (std::memcmp(first.data(), data.data(), data.size_bytes()) == 0) {
          return result;
        }
        failed_check = "full-recompute";
      }
    } catch (const sim::ResultVerificationError&) {
      // A per-pass check deep in a streamed pipeline already failed and
      // attributed the incident; recompute from the retained input.
      if (attempt >= policy.verify_attempts) throw;
      recompute();
      continue;
    }
    ++dev.health().verify_failures;
    if (attempt >= policy.verify_attempts) {
      throw sim::ResultVerificationError(dev.device_ref(), failed_check,
                                         expected, observed, attempt);
    }
    recompute();
  }
}

/// verified_span_run over a host span, restored by host copy.
template <typename T, typename Run>
auto verified_span_run(Device& dev, const ExecPolicy& policy,
                       const PlanDesc& desc, std::span<cx<T>> data, Run&& run)
    -> std::invoke_result_t<Run&> {
  return verified_span_run<T>(
      dev, policy, desc, data, run, [data](std::span<const cx<T>> input) {
        std::copy(input.begin(), input.end(), data.begin());
      });
}

}  // namespace repro::gpufft
