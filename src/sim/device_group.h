// A fleet of simulated devices behind a pluggable interconnect.
//
// DeviceGroup owns N sim::Device instances (homogeneous or mixed GpuSpecs)
// that share a single simulated timeline: every member's clock starts at
// the same origin, so "time t on card A" and "time t on card B" name the
// same instant and cross-device ordering reduces to
// Stream::wait_until_ms. How the cards reach *each other* is a Topology
// (sim/topology/): the default PcieTreeTopology has no peer links —
// G8x-era CUDA had none — so all inter-device traffic is host-staged (a
// d2h on the producer, host memory, an h2d on the consumer, each costed
// through the per-card PCIe model), while the peer fabrics
// (PeerMeshTopology, Torus2DTopology) route direct device-to-device legs
// through d2d_async below. The topology is only a description, shareable
// between groups; the group owns its links' timing state (a LinkClock),
// next to its members' engine clocks, and reset_clocks() clears both.
//
// The cards may share the host's chipset, and N concurrent PCIe links
// cannot each sustain their full rate through one bridge. The topology's
// aggregate host bandwidth models that: each member's effective
// per-direction PCIe bandwidth is derated at construction to min(card
// rate, aggregate rate / N). With the default PCIe-2.0 chipset
// (12.8 GB/s per direction) a single 8800-class card (≈5.2 GB/s) is
// unaffected — a group of one is bit- and timeline-identical to a bare
// Device — while four cards are bridge-bound at 3.2 GB/s each, which is
// exactly the honest sublinearity the sharded FFT benches report.
//
// The group also accounts host staging buffers (the exchange volumes a
// sharded plan keeps in host memory) so peak_bytes_in_flight() can check
// the 512 MB-card constraint per shard: it is the largest per-member
// device footprint plus the peak host staging footprint.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/device.h"
#include "sim/errors.h"
#include "sim/health.h"
#include "sim/spec.h"
#include "sim/stream.h"
#include "sim/topology/topology.h"

namespace repro::sim {

/// Quarantine policy for the group's health scoreboard. A member whose
/// DeviceHealth accrues at least `quarantine_threshold` incidents inside
/// one sweep window (sweep_health() to sweep_health()) is quarantined:
/// removed from schedulable_members() so plans shard around it exactly
/// like a DeviceLost re-shard, except the card is still powered and can
/// be probed. After `clean_probes_to_reinstate` consecutive probe
/// transforms complete without a single new incident, the member is
/// reinstated into the schedulable set.
struct HealthPolicy {
  std::uint64_t quarantine_threshold = 3;
  std::uint64_t clean_probes_to_reinstate = 2;
};

/// Simulated duration of an on-device (cudaMemcpyDeviceToDevice) copy:
/// the payload crosses DRAM twice (read + write) at the card's effective
/// stream bandwidth. Used for the self-legs of a peer exchange, where a
/// member's own planes never leave the card.
inline double local_copy_ms(const GpuSpec& spec, std::size_t bytes) {
  const double gbs =
      spec.peak_bandwidth_gbs() * spec.dram.peak_efficiency / 2.0;
  return static_cast<double>(bytes) / (gbs * 1e6);
}

/// One timed hop of a routed transfer, for callers that account per
/// device (ordinals are group ordinals; from == to marks a local copy).
struct PeerLeg {
  std::size_t from{};
  std::size_t to{};
  double start_ms{};  ///< when the send engine begins driving the link
  double dur_ms{};    ///< wire time of this hop
  double done_ms{};   ///< when the receive engine has the payload
};

/// When each directed link of a fabric next goes idle: one FIFO per
/// (from, to) pair, like the engine FIFOs inside sim::Device. Links are
/// full duplex, so a->b and b->a queue independently. This is timing
/// state, not wiring: a DeviceGroup owns one and reset_clocks() clears
/// it, and a model replaying a schedule owns a private one.
class LinkClock {
 public:
  /// A leg over link a->b that is ready at `ready_ms` starts once the
  /// link is free and holds it for `dur_ms`. Returns the start time.
  double reserve(std::size_t a, std::size_t b, double ready_ms,
                 double dur_ms) {
    double& free_ms = free_ms_[{a, b}];
    const double start = ready_ms > free_ms ? ready_ms : free_ms;
    free_ms = start + dur_ms;
    return start;
  }

  /// Forget all link occupancy.
  void reset() { free_ms_.clear(); }

 private:
  std::map<std::pair<std::size_t, std::size_t>, double> free_ms_;
};

/// Time one transfer of `bytes` from `devices[src]` to `devices[dst]`
/// over `topo`, asynchronously on the participating streams; no data
/// moves. DeviceGroup::d2d_async and the sharded planner's model both
/// time their legs here. src == dst is a local copy: one D2H-engine op at
/// DRAM copy rate on `send_stream`. Otherwise each hop of
/// topo.route(src, dst) occupies the sender's D2H engine, the link (FIFO
/// in `links`) and the receiver's H2D engine for the leg's wire time. The
/// first hop sends on `send_stream`, so it orders after the data it
/// carries; every hop receives, and a forwarder resends, on that device's
/// `exch_streams` entry, so stream order gives store-and-forward for
/// free. Throws DeviceLostError if any device on the route is lost.
std::vector<PeerLeg> time_transfer(
    const Topology& topo, LinkClock& links,
    std::span<const std::unique_ptr<Device>> devices, std::size_t src,
    std::size_t dst, std::size_t bytes, Stream& send_stream,
    std::span<Stream* const> exch_streams);

class DeviceGroup {
 public:
  /// One Device per spec behind the default PcieTreeTopology (a PCIe 2.0
  /// chipset: ~12.8 GB/s per direction shared by all slots). Specs may be
  /// mixed (e.g. an 8800 GT next to an 8800 GTX).
  explicit DeviceGroup(std::vector<GpuSpec> specs);

  /// Homogeneous convenience: `count` copies of `spec`.
  DeviceGroup(std::size_t count, const GpuSpec& spec);

  /// Pluggable-interconnect constructors: the topology must span exactly
  /// the group's device count. Host-bridge derating goes through
  /// Topology::host_share_*; peer fabrics additionally enable d2d_async.
  DeviceGroup(std::vector<GpuSpec> specs,
              std::shared_ptr<const Topology> topo);
  DeviceGroup(std::size_t count, const GpuSpec& spec,
              std::shared_ptr<const Topology> topo);

  DeviceGroup(const DeviceGroup&) = delete;
  DeviceGroup& operator=(const DeviceGroup&) = delete;

  [[nodiscard]] std::size_t size() const { return devices_.size(); }
  [[nodiscard]] Device& device(std::size_t i) {
    REPRO_CHECK(i < devices_.size());
    return *devices_[i];
  }
  [[nodiscard]] const Device& device(std::size_t i) const {
    REPRO_CHECK(i < devices_.size());
    return *devices_[i];
  }
  /// The member a typed error names (by its group ordinal).
  [[nodiscard]] Device& device(const DeviceRef& ref) {
    return device(static_cast<std::size_t>(ref.ordinal));
  }

  /// The interconnect description (never null).
  [[nodiscard]] const Topology& topo() const { return *interconnect_; }

  /// The group's directed-link FIFOs: timing state, reset with the
  /// engine clocks by reset_clocks().
  [[nodiscard]] LinkClock& links() { return links_; }

  /// Direct device-to-device copy of `count` elements over the fabric:
  /// the legs time_transfer schedules on the group's devices and link
  /// clock, then the copy. Legs are not injector occurrence points.
  template <typename T>
  std::vector<PeerLeg> d2d_async(std::size_t src, std::size_t dst,
                                 const DeviceBuffer<T>& sbuf,
                                 std::size_t soff, DeviceBuffer<T>& dbuf,
                                 std::size_t doff, std::size_t count,
                                 Stream& send_stream,
                                 std::span<Stream* const> exch_streams) {
    REPRO_CHECK(soff + count <= sbuf.size());
    REPRO_CHECK(doff + count <= dbuf.size());
    std::vector<PeerLeg> legs =
        time_transfer(*interconnect_, links_, devices_, src, dst,
                      count * sizeof(T), send_stream, exch_streams);
    std::copy(sbuf.data() + soff, sbuf.data() + soff + count,
              dbuf.data() + doff);
    return legs;
  }

  /// Convenience: member i's fault injector (created lazily).
  FaultInjector& faults(std::size_t i) { return device(i).faults(); }
  /// Whether any member has at least one fault armed — the group-level
  /// gate for the staging layer's checksum verification.
  [[nodiscard]] bool any_faults_armed() const;

  /// Indices of members that have not been lost to an injected
  /// DeviceLost.
  [[nodiscard]] std::vector<std::size_t> alive_members() const;
  [[nodiscard]] std::size_t alive_count() const;

  /// Alive members minus the quarantined ones — the set plans should
  /// schedule work onto. If every alive member is quarantined (only
  /// possible when losses shrink the fleet under an active quarantine),
  /// the alive set is returned instead: serving degraded beats serving
  /// nothing, and the scoreboard keeps scoring the suspects.
  [[nodiscard]] std::vector<std::size_t> schedulable_members() const;
  [[nodiscard]] std::size_t schedulable_count() const;

  /// ---- Health scoreboard (sim/health.h counters, quarantine policy) ----
  void set_health_policy(const HealthPolicy& policy) {
    health_policy_ = policy;
  }
  [[nodiscard]] const HealthPolicy& health_policy() const {
    return health_policy_;
  }
  [[nodiscard]] bool quarantined(std::size_t i) const {
    REPRO_CHECK(i < member_health_.size());
    return member_health_[i].quarantined;
  }

  /// Score every member's windowed incident delta against the policy and
  /// quarantine the offenders; every member's window then re-anchors to
  /// its current health so old incidents age out. The last schedulable
  /// member is never quarantined — a fleet of suspects still serves.
  /// Returns the ordinals quarantined by this sweep.
  std::vector<std::size_t> sweep_health();

  /// Probe verdicts for a quarantined member, reported by whoever ran the
  /// probe transform (serve::FftService). A clean probe (completed with
  /// zero new health incidents) counts toward reinstatement; note_clean_
  /// probe returns true when it reinstates the member. A failed probe
  /// resets the clean streak and re-anchors the member's health window.
  bool note_clean_probe(std::size_t i);
  void note_failed_probe(std::size_t i);

  /// Every member's recovery ledger summed: the group's recovery actions
  /// and incidents, each counted once on the member that acted.
  [[nodiscard]] DeviceHealth health_sum() const;

  /// Lifetime totals across sweeps, exported through ServiceReport.
  [[nodiscard]] std::uint64_t quarantines_total() const {
    return quarantines_total_;
  }
  [[nodiscard]] std::uint64_t reinstatements_total() const {
    return reinstatements_total_;
  }

  /// Makespan across the fleet: the members share one time origin, so the
  /// group's elapsed time is the slowest member's.
  [[nodiscard]] double elapsed_ms() const;

  /// Advance every member's submission clock to at least `ms` (the shared
  /// time origin makes the instant meaningful fleet-wide). Models the host
  /// idling until a request arrives; see Device::advance_clock_to_ms.
  void advance_to_ms(double ms);

  /// Reset every member's clock (timelines re-anchor to a common zero).
  void reset_clocks();
  /// cudaDeviceSynchronize on every member.
  void sync_all();
  /// Restart every member's allocator statistics and the group's host
  /// staging peak (see Device::reset_peak_stats()).
  void reset_peak_stats();

  /// Host staging accounting: sharded plans register the exchange buffers
  /// they keep in host memory so the group can report a complete
  /// working-set figure. Prefer the RAII HostStagingLease below.
  void add_host_staging(std::size_t bytes);
  void remove_host_staging(std::size_t bytes);
  [[nodiscard]] std::size_t host_staging_bytes() const {
    return host_staging_bytes_;
  }
  [[nodiscard]] std::size_t peak_host_staging_bytes() const {
    return peak_host_staging_bytes_;
  }

  /// The 512 MB-constraint check for sharded plans: the largest
  /// per-member device footprint (max over members' peak_allocated_bytes,
  /// since each card has its own memory) plus the peak host staging
  /// footprint held on behalf of the group.
  [[nodiscard]] std::size_t peak_bytes_in_flight() const;

  /// Group-lifetime singleton slot, the group analogue of
  /// Device::local<T>(): one instance of T per group, created on first
  /// use with T(DeviceGroup&). This is how PlanRegistry attaches to a
  /// group without sim/ depending on gpufft/.
  template <typename T>
  T& local() {
    const std::type_index key(typeid(T));
    auto it = locals_.find(key);
    if (it == locals_.end()) {
      it = locals_.emplace(key, std::make_shared<T>(*this)).first;
    }
    return *static_cast<T*>(it->second.get());
  }

  /// RAII registration of a host staging buffer with the group.
  class HostStagingLease {
   public:
    HostStagingLease() = default;
    HostStagingLease(DeviceGroup& group, std::size_t bytes)
        : group_(&group), bytes_(bytes) {
      group_->add_host_staging(bytes_);
    }
    ~HostStagingLease() { release(); }
    HostStagingLease(HostStagingLease&& o) noexcept
        : group_(o.group_), bytes_(o.bytes_) {
      o.group_ = nullptr;
      o.bytes_ = 0;
    }
    HostStagingLease& operator=(HostStagingLease&& o) noexcept {
      if (this != &o) {
        release();
        group_ = o.group_;
        bytes_ = o.bytes_;
        o.group_ = nullptr;
        o.bytes_ = 0;
      }
      return *this;
    }
    HostStagingLease(const HostStagingLease&) = delete;
    HostStagingLease& operator=(const HostStagingLease&) = delete;

    void release() {
      if (group_ != nullptr) {
        group_->remove_host_staging(bytes_);
        group_ = nullptr;
        bytes_ = 0;
      }
    }

   private:
    DeviceGroup* group_ = nullptr;
    std::size_t bytes_ = 0;
  };

 private:
  /// Per-member quarantine state: the health snapshot anchoring the
  /// current sweep window, the quarantine flag, and the clean-probe
  /// streak earned toward reinstatement.
  struct MemberHealthState {
    DeviceHealth window_start{};
    bool quarantined = false;
    std::uint64_t clean_probes = 0;
  };

  std::shared_ptr<const Topology> interconnect_;
  LinkClock links_;
  // unique_ptr: Device is pinned (streams and buffers hold raw pointers).
  std::vector<std::unique_ptr<Device>> devices_;
  std::size_t host_staging_bytes_ = 0;
  std::size_t peak_host_staging_bytes_ = 0;
  HealthPolicy health_policy_{};
  std::vector<MemberHealthState> member_health_;
  std::uint64_t quarantines_total_ = 0;
  std::uint64_t reinstatements_total_ = 0;
  // Last member so slots holding plans/buffers die before the devices.
  std::unordered_map<std::type_index, std::shared_ptr<void>> locals_;
};

}  // namespace repro::sim
