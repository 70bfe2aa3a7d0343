// Per-device recovery ledger.
//
// Every Device carries a DeviceHealth — a handful of plain counters, so
// the always-present member costs nothing on the hot paths. It is the one
// place recovery actions are counted, each once, on the device that
// acted: the staging retry loop (gpufft/staging.h) counts transient
// retries and corruption re-stages, the verification layer
// (gpufft/verify.h) counts ABFT check failures and the recomputes they
// trigger, the sharded plans count a device-lost failover on the member
// the DeviceLostError names, and the ResourceCache / PlanRegistry count
// their out-of-memory and watermark evictions on the device they manage
// (a group registry on its primary device). DeviceGroup snapshots the
// ledgers per sweep window to decide quarantine (device_group.h), and
// serve::FftService reports their per-run difference in its
// ServiceReport.
#pragma once

#include <cstdint>

namespace repro::sim {

struct DeviceHealth {
  // Incidents: evidence the device itself misbehaved.
  std::uint64_t verify_failures = 0;      ///< ABFT checks failed on this device
  std::uint64_t corruption_restages = 0;  ///< checksummed staging re-stages
  std::uint64_t transient_retries = 0;    ///< transfer attempts retried
  // Recovery actions: the work the policies did in response.
  std::uint64_t verify_recomputes = 0;      ///< bounded recomputes run
  std::uint64_t device_lost_failovers = 0;  ///< re-shards after this loss
  std::uint64_t oom_evictions = 0;          ///< plans/blocks evicted on OOM
  std::uint64_t oom_retries = 0;            ///< allocations retried post-evict
  std::uint64_t watermark_evictions = 0;    ///< evictions to hold a watermark

  /// Incident count: only the three incident kinds score, so recovery
  /// work (recomputes, failovers, evictions) never sways a quarantine.
  [[nodiscard]] std::uint64_t total() const {
    return verify_failures + corruption_restages + transient_retries;
  }

  /// Incident count accrued since `since` (an earlier snapshot); the
  /// quarantine sweep scores each member by this windowed delta so old
  /// incidents age out instead of condemning a device forever.
  [[nodiscard]] std::uint64_t delta_since(const DeviceHealth& since) const {
    return total() - since.total();
  }

  DeviceHealth& operator+=(const DeviceHealth& o) {
    verify_failures += o.verify_failures;
    corruption_restages += o.corruption_restages;
    transient_retries += o.transient_retries;
    verify_recomputes += o.verify_recomputes;
    device_lost_failovers += o.device_lost_failovers;
    oom_evictions += o.oom_evictions;
    oom_retries += o.oom_retries;
    watermark_evictions += o.watermark_evictions;
    return *this;
  }
};

}  // namespace repro::sim
