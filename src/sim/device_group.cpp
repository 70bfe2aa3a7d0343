#include "sim/device_group.h"

#include "sim/topology/pcie_tree.h"

namespace repro::sim {

namespace {

/// Derate one card's PCIe link against the shared host bridge: with N
/// cards active each can sustain at most aggregate/N per direction
/// (Topology::host_share_*, the PR 3 rule).
GpuSpec derate_for_bridge(GpuSpec spec, const Topology& topo) {
  spec.pcie.h2d_gbs = topo.host_share_h2d_gbs(spec.pcie.h2d_gbs);
  spec.pcie.d2h_gbs = topo.host_share_d2h_gbs(spec.pcie.d2h_gbs);
  return spec;
}

std::vector<GpuSpec> replicate(std::size_t count, const GpuSpec& spec) {
  REPRO_CHECK(count >= 1);
  return std::vector<GpuSpec>(count, spec);
}

}  // namespace

std::vector<PeerLeg> time_transfer(
    const Topology& topo, LinkClock& links,
    std::span<const std::unique_ptr<Device>> devices, std::size_t src,
    std::size_t dst, std::size_t bytes, Stream& send_stream,
    std::span<Stream* const> exch_streams) {
  REPRO_CHECK(src < devices.size() && dst < devices.size());
  std::vector<PeerLeg> legs;
  if (src == dst) {
    Device& dev = *devices[src];
    if (dev.lost()) throw DeviceLostError(dev.device_ref());
    const double dur = local_copy_ms(dev.spec(), bytes);
    const double start =
        dev.submit_timed(send_stream, Engine::DmaD2H, dur, "d2d local");
    legs.push_back({src, dst, start, dur, start + dur});
    return legs;
  }
  const std::vector<std::size_t> hops = topo.route(src, dst);
  REPRO_CHECK_MSG(hops.size() >= 2,
                  "topology has no peer path between these members");
  legs.reserve(hops.size() - 1);
  for (std::size_t h = 0; h + 1 < hops.size(); ++h) {
    const std::size_t a = hops[h];
    const std::size_t b = hops[h + 1];
    Device& da = *devices[a];
    Device& db = *devices[b];
    if (da.lost()) throw DeviceLostError(da.device_ref());
    if (db.lost()) throw DeviceLostError(db.device_ref());
    REPRO_CHECK_MSG(b < exch_streams.size() && exch_streams[b] != nullptr,
                    "exchange stream missing for route hop");
    Stream& ss = h == 0 ? send_stream : *exch_streams[a];
    Stream& rs = *exch_streams[b];
    const double dur = topo.leg_ms(a, b, bytes);
    const double ready =
        std::max(ss.ready_ms(), da.next_free_ms(Engine::DmaD2H));
    const double start = links.reserve(a, b, ready, dur);
    ss.wait_until_ms(start);
    const double s0 = da.submit_timed(ss, Engine::DmaD2H, dur, "d2d send");
    rs.wait_until_ms(s0);
    const double r0 = db.submit_timed(rs, Engine::DmaH2D, dur, "d2d recv");
    legs.push_back({a, b, s0, dur, r0 + dur});
  }
  return legs;
}

DeviceGroup::DeviceGroup(std::vector<GpuSpec> specs)
    : DeviceGroup(specs, std::make_shared<PcieTreeTopology>(specs.size())) {}

DeviceGroup::DeviceGroup(std::size_t count, const GpuSpec& spec)
    : DeviceGroup(replicate(count, spec)) {}

DeviceGroup::DeviceGroup(std::vector<GpuSpec> specs,
                         std::shared_ptr<const Topology> topo)
    : interconnect_(std::move(topo)) {
  REPRO_CHECK(!specs.empty());
  REPRO_CHECK(interconnect_ != nullptr);
  REPRO_CHECK_MSG(interconnect_->size() == specs.size(),
                  "topology size must match the device count");
  devices_.reserve(specs.size());
  for (const GpuSpec& s : specs) {
    devices_.push_back(
        std::make_unique<Device>(derate_for_bridge(s, *interconnect_)));
    devices_.back()->set_ordinal(static_cast<int>(devices_.size()) - 1);
  }
  member_health_.resize(devices_.size());
}

DeviceGroup::DeviceGroup(std::size_t count, const GpuSpec& spec,
                         std::shared_ptr<const Topology> topo)
    : DeviceGroup(replicate(count, spec), std::move(topo)) {}

double DeviceGroup::elapsed_ms() const {
  double ms = 0.0;
  for (const auto& d : devices_) ms = std::max(ms, d->elapsed_ms());
  return ms;
}

void DeviceGroup::advance_to_ms(double ms) {
  for (auto& d : devices_) d->advance_clock_to_ms(ms);
}

void DeviceGroup::reset_clocks() {
  for (auto& d : devices_) d->reset_clock();
  links_.reset();
}

void DeviceGroup::sync_all() {
  for (auto& d : devices_) d->sync_all();
}

void DeviceGroup::reset_peak_stats() {
  for (auto& d : devices_) d->reset_peak_stats();
  peak_host_staging_bytes_ = host_staging_bytes_;
}

void DeviceGroup::add_host_staging(std::size_t bytes) {
  host_staging_bytes_ += bytes;
  peak_host_staging_bytes_ =
      std::max(peak_host_staging_bytes_, host_staging_bytes_);
}

void DeviceGroup::remove_host_staging(std::size_t bytes) {
  REPRO_CHECK(bytes <= host_staging_bytes_);
  host_staging_bytes_ -= bytes;
}

bool DeviceGroup::any_faults_armed() const {
  for (const auto& d : devices_) {
    if (d->fault_injection_armed()) return true;
  }
  return false;
}

std::vector<std::size_t> DeviceGroup::alive_members() const {
  std::vector<std::size_t> alive;
  alive.reserve(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (!devices_[i]->lost()) alive.push_back(i);
  }
  return alive;
}

std::size_t DeviceGroup::alive_count() const {
  return alive_members().size();
}

std::vector<std::size_t> DeviceGroup::schedulable_members() const {
  std::vector<std::size_t> alive = alive_members();
  std::vector<std::size_t> sched;
  sched.reserve(alive.size());
  for (std::size_t i : alive) {
    if (!member_health_[i].quarantined) sched.push_back(i);
  }
  // All survivors quarantined: lift the quarantine for scheduling
  // purposes (the scoreboard state itself is untouched).
  return sched.empty() ? alive : sched;
}

std::size_t DeviceGroup::schedulable_count() const {
  return schedulable_members().size();
}

std::vector<std::size_t> DeviceGroup::sweep_health() {
  std::vector<std::size_t> newly;
  // Count the would-be survivors first so one sweep cannot quarantine
  // the whole fleet: quarantining stops once a single schedulable
  // member would remain.
  std::size_t schedulable = 0;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (!devices_[i]->lost() && !member_health_[i].quarantined) {
      ++schedulable;
    }
  }
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    MemberHealthState& st = member_health_[i];
    const DeviceHealth now = devices_[i]->health();
    if (!devices_[i]->lost() && !st.quarantined && schedulable > 1 &&
        now.delta_since(st.window_start) >=
            health_policy_.quarantine_threshold) {
      st.quarantined = true;
      st.clean_probes = 0;
      ++quarantines_total_;
      --schedulable;
      newly.push_back(i);
    }
    st.window_start = now;  // the window re-anchors every sweep
  }
  return newly;
}

bool DeviceGroup::note_clean_probe(std::size_t i) {
  REPRO_CHECK(i < member_health_.size());
  MemberHealthState& st = member_health_[i];
  REPRO_CHECK_MSG(st.quarantined, "probe verdict for a healthy member");
  st.window_start = devices_[i]->health();
  if (++st.clean_probes < health_policy_.clean_probes_to_reinstate) {
    return false;
  }
  st.quarantined = false;
  st.clean_probes = 0;
  ++reinstatements_total_;
  return true;
}

void DeviceGroup::note_failed_probe(std::size_t i) {
  REPRO_CHECK(i < member_health_.size());
  MemberHealthState& st = member_health_[i];
  REPRO_CHECK_MSG(st.quarantined, "probe verdict for a healthy member");
  st.clean_probes = 0;
  st.window_start = devices_[i]->health();
}

DeviceHealth DeviceGroup::health_sum() const {
  DeviceHealth sum;
  for (const auto& d : devices_) sum += d->health();
  return sum;
}

std::size_t DeviceGroup::peak_bytes_in_flight() const {
  std::size_t device_peak = 0;
  for (const auto& d : devices_) {
    device_peak = std::max(device_peak, d->peak_allocated_bytes());
  }
  return device_peak + peak_host_staging_bytes_;
}

}  // namespace repro::sim
