// Checksummed, retrying PCIe staging — the recovery layer over
// Device::h2d/d2h.
//
// The simulated link can fail two ways (sim/fault.h): a transient failure
// charges the transfer's PCIe time but delivers nothing (surfaced as
// TransientTransferError, or as a poisoned stream for async transfers),
// and a corruption delivers the payload with a flipped byte and reports
// nothing at all. staged_h2d/staged_d2h recover from both with one shared
// bounded loop (detail::staged_retry): re-stage on a transient, verify the
// delivered payload against the source and re-stage on a mismatch, and
// give up with TransferCorruptionError after StagePolicy::max_attempts.
// Each retry and re-stage is counted once, on the staging device's
// DeviceHealth ledger (sim/health.h). Every attempt's PCIe time stays
// charged to the timeline — retries are not free — but because the
// simulator's functional effects are immediate, a recovered transfer
// leaves results bit-identical to an undisturbed run.
//
// Cost discipline: when the device has no faults armed
// (Device::fault_injection_armed() == false) both helpers reduce to the
// single h2d/d2h(_async) call they wrap — no verification pass, no extra
// simulated time, bit-identical timeline. The verification memcmp is
// host-side bookkeeping (real CPU, zero simulated time), gated so
// fault-free runs never pay it either.
//
// DeviceLostError and errors poisoning the stream from *earlier*
// operations are not retried here — they propagate to the plan layer,
// where sharded plans re-shard around the lost card (sharded.h).
#pragma once

#include <cstring>
#include <exception>
#include <span>

#include "gpufft/types.h"
#include "sim/errors.h"

namespace repro::gpufft {

/// Bounds for the staged-transfer recovery loop.
struct StagePolicy {
  int max_attempts = 4;  ///< total tries before giving up
};

namespace detail {

/// The bounded loop both staged directions share. `once` issues one
/// attempt and returns its simulated ms; after it, `bytes` at `dst` must
/// equal `src` or the payload is re-staged.
template <typename Once>
double staged_retry(Device& dev, const char* op, sim::Stream* stream,
                    const StagePolicy& policy, const void* dst,
                    const void* src, std::size_t bytes, Once&& once) {
  double ms = 0.0;
  for (int attempt = 1;; ++attempt) {
    try {
      ms += once();
      // Async failures are sticky on the stream; surface ours here so
      // the retry happens in place instead of at a distant sync().
      if (stream != nullptr && stream->poisoned()) {
        std::rethrow_exception(stream->error());
      }
    } catch (const sim::TransientTransferError&) {
      if (stream != nullptr) stream->clear_error();
      if (attempt >= policy.max_attempts) throw;
      ++dev.health().transient_retries;
      continue;
    }
    if (bytes == 0 || std::memcmp(dst, src, bytes) == 0) return ms;
    if (attempt >= policy.max_attempts) {
      throw sim::TransferCorruptionError(dev.device_ref(), op, bytes,
                                         attempt);
    }
    ++dev.health().corruption_restages;
  }
}

}  // namespace detail

/// Host-to-device with bounded retry + verification. `stream == nullptr`
/// stages on the serial default queue. Returns the total simulated ms
/// charged to the transfer across all attempts (0.0 for serial staging,
/// matching Device::h2d's interface).
template <typename U>
double staged_h2d(Device& dev, DeviceBuffer<U>& dst, std::span<const U> src,
                  sim::Stream* stream = nullptr, std::size_t dst_offset = 0,
                  const StagePolicy& policy = {}) {
  const auto once = [&] {
    if (stream != nullptr) return dev.h2d_async(dst, src, *stream, dst_offset);
    dev.h2d(dst, src, dst_offset);
    return 0.0;
  };
  if (!dev.fault_injection_armed()) return once();
  return detail::staged_retry(dev, "h2d", stream, policy,
                              dst.data() + dst_offset, src.data(),
                              src.size_bytes(), once);
}

/// Device-to-host counterpart of staged_h2d.
template <typename U>
double staged_d2h(Device& dev, std::span<U> dst, const DeviceBuffer<U>& src,
                  sim::Stream* stream = nullptr, std::size_t src_offset = 0,
                  const StagePolicy& policy = {}) {
  const auto once = [&] {
    if (stream != nullptr) return dev.d2h_async(dst, src, *stream, src_offset);
    dev.d2h(dst, src, src_offset);
    return 0.0;
  };
  if (!dev.fault_injection_armed()) return once();
  return detail::staged_retry(dev, "d2h", stream, policy, dst.data(),
                              src.data() + src_offset, dst.size_bytes(),
                              once);
}

}  // namespace repro::gpufft
