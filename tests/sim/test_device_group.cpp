// DeviceGroup: construction, bridge derating, the shared timeline, host
// staging accounting, and the degenerate group-of-one guarantees.
#include "sim/device_group.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "sim/pcie.h"
#include "sim/topology/pcie_tree.h"

namespace repro::sim {
namespace {

TEST(DeviceGroup, HomogeneousConstructionReplicatesTheSpec) {
  DeviceGroup group(4, geforce_8800_gts());
  ASSERT_EQ(group.size(), 4u);
  for (std::size_t d = 0; d < group.size(); ++d) {
    EXPECT_EQ(group.device(d).spec().name, geforce_8800_gts().name);
    EXPECT_EQ(group.device(d).spec().device_memory_bytes,
              geforce_8800_gts().device_memory_bytes);
  }
}

TEST(DeviceGroup, MixedSpecsKeepTheirIdentity) {
  DeviceGroup group({geforce_8800_gt(), geforce_8800_gtx()});
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group.device(0).spec().name, geforce_8800_gt().name);
  EXPECT_EQ(group.device(1).spec().name, geforce_8800_gtx().name);
  EXPECT_NE(group.device(0).spec().num_sms, group.device(1).spec().num_sms);
}

TEST(DeviceGroup, BridgeDeratesPerCardPcieBandwidth) {
  const GpuSpec gts = geforce_8800_gts();  // 5.2 / 5.0 GB/s
  // The PCIe-2.0 chipset tree, 12.8 GB/s: what the spec-only
  // constructors build.
  const auto tree = [](std::size_t n) {
    return std::make_shared<PcieTreeTopology>(n, 12.8, 12.8);
  };

  // One or two cards: each card's own link is the bottleneck.
  for (std::size_t n : {1u, 2u}) {
    DeviceGroup group(n, gts, tree(n));
    for (std::size_t d = 0; d < n; ++d) {
      EXPECT_DOUBLE_EQ(group.device(d).spec().pcie.h2d_gbs, gts.pcie.h2d_gbs);
      EXPECT_DOUBLE_EQ(group.device(d).spec().pcie.d2h_gbs, gts.pcie.d2h_gbs);
    }
  }
  // Four and eight cards: the shared bridge is, at aggregate/N.
  DeviceGroup four(4, gts, tree(4));
  EXPECT_DOUBLE_EQ(four.device(0).spec().pcie.h2d_gbs, 12.8 / 4.0);
  EXPECT_DOUBLE_EQ(four.device(0).spec().pcie.d2h_gbs, 12.8 / 4.0);
  DeviceGroup eight(8, gts, tree(8));
  EXPECT_DOUBLE_EQ(eight.device(0).spec().pcie.h2d_gbs, 12.8 / 8.0);

  // The default constructor builds exactly that tree.
  DeviceGroup deflt(4, gts);
  EXPECT_EQ(deflt.topo().kind(), "pcie-tree");
  EXPECT_DOUBLE_EQ(deflt.topo().aggregate_h2d_gbs(), 12.8);
  EXPECT_DOUBLE_EQ(deflt.topo().aggregate_d2h_gbs(), 12.8);
  EXPECT_DOUBLE_EQ(deflt.device(0).spec().pcie.h2d_gbs, 12.8 / 4.0);

  // An unconstrained bridge never derates: every card keeps its full
  // link rate regardless of group size.
  for (std::size_t n : {4u, 8u}) {
    DeviceGroup ideal(n, gts,
                      std::make_shared<PcieTreeTopology>(
                          n, kUnconstrainedGBs, kUnconstrainedGBs));
    EXPECT_DOUBLE_EQ(ideal.device(0).spec().pcie.h2d_gbs, gts.pcie.h2d_gbs);
    EXPECT_DOUBLE_EQ(ideal.device(0).spec().pcie.d2h_gbs, gts.pcie.d2h_gbs);
  }
}

TEST(DeviceGroup, DeratedLinkSlowsSimulatedTransfers) {
  const std::size_t bytes = 8 << 20;
  DeviceGroup one(1, geforce_8800_gts());
  DeviceGroup four(4, geforce_8800_gts());
  const double t1 = pcie_transfer_ns(one.device(0).spec().pcie,
                                     TransferDir::HostToDevice, bytes);
  const double t4 = pcie_transfer_ns(four.device(0).spec().pcie,
                                     TransferDir::HostToDevice, bytes);
  EXPECT_GT(t4, t1 * 1.5);  // 5.2 -> 3.2 GB/s
}

TEST(DeviceGroup, ElapsedIsTheSlowestMember) {
  DeviceGroup group(2, geforce_8800_gts());
  auto b0 = group.device(0).alloc<float>(1 << 16);
  auto b1 = group.device(1).alloc<float>(1 << 10);
  std::vector<float> big(b0.size());
  std::vector<float> small(b1.size());
  group.device(0).h2d(b0, std::span<const float>(big));
  group.device(1).h2d(b1, std::span<const float>(small));
  EXPECT_DOUBLE_EQ(group.elapsed_ms(), group.device(0).elapsed_ms());
  EXPECT_GT(group.device(0).elapsed_ms(), group.device(1).elapsed_ms());

  group.reset_clocks();
  EXPECT_EQ(group.elapsed_ms(), 0.0);
  EXPECT_EQ(group.device(0).elapsed_ms(), 0.0);
}

TEST(DeviceGroup, SyncAllReachesEveryMember) {
  DeviceGroup group(2, geforce_8800_gts());
  Stream s0(group.device(0));
  Stream s1(group.device(1));
  group.device(0).submit_timed(s0, Engine::Compute, 5.0, "k0");
  group.device(1).submit_timed(s1, Engine::Compute, 9.0, "k1");
  group.sync_all();
  EXPECT_NEAR(group.device(0).elapsed_ms(), 5.0, 1e-12);
  EXPECT_NEAR(group.device(1).elapsed_ms(), 9.0, 1e-12);
  EXPECT_NEAR(group.elapsed_ms(), 9.0, 1e-12);
}

TEST(DeviceGroup, PeakBytesInFlightCombinesDevicesAndHostStaging) {
  DeviceGroup group(2, geforce_8800_gts());
  {
    auto a = group.device(0).alloc<float>(1 << 20);  // 4 MB on card 0
    auto b = group.device(1).alloc<float>(1 << 18);  // 1 MB on card 1
    // Per-card memories are independent: the device part is the max.
    EXPECT_EQ(group.peak_bytes_in_flight(), std::size_t{4} << 20);
  }
  {
    const DeviceGroup::HostStagingLease lease(group, 3 << 20);
    EXPECT_EQ(group.host_staging_bytes(), std::size_t{3} << 20);
    EXPECT_EQ(group.peak_bytes_in_flight(), std::size_t{7} << 20);
  }
  // The lease is released but the peak persists (a high-water mark).
  EXPECT_EQ(group.host_staging_bytes(), 0u);
  EXPECT_EQ(group.peak_bytes_in_flight(), std::size_t{7} << 20);

  group.reset_peak_stats();
  EXPECT_EQ(group.peak_host_staging_bytes(), 0u);
  EXPECT_EQ(group.peak_bytes_in_flight(), 0u);
}

TEST(DeviceGroup, HostStagingLeaseMovesSafely) {
  DeviceGroup group(1, geforce_8800_gt());
  DeviceGroup::HostStagingLease outer;
  {
    DeviceGroup::HostStagingLease inner(group, 1024);
    outer = std::move(inner);
  }
  EXPECT_EQ(group.host_staging_bytes(), 1024u);
  outer.release();
  EXPECT_EQ(group.host_staging_bytes(), 0u);
}

TEST(DeviceGroup, GroupOfOneKeepsTheBareDeviceTimeline) {
  // The degenerate-path guard at the sim layer: a group of one performs
  // identically to a bare Device (no bridge derate below the card rate, no
  // scheduling overhead). The gpufft layer extends this to the full
  // sharded-vs-out-of-core timeline (test_sharded.cpp).
  const GpuSpec spec = geforce_8800_gts();
  DeviceGroup group(1, spec);
  Device bare(spec);
  EXPECT_DOUBLE_EQ(group.device(0).spec().pcie.h2d_gbs, spec.pcie.h2d_gbs);
  EXPECT_DOUBLE_EQ(group.device(0).spec().pcie.d2h_gbs, spec.pcie.d2h_gbs);

  auto run = [](Device& dev) {
    auto buf = dev.alloc<float>(1 << 16);
    std::vector<float> host(buf.size());
    std::iota(host.begin(), host.end(), 0.0f);
    Stream s0(dev);
    Stream s1(dev);
    dev.h2d_async(buf, std::span<const float>(host), s0);
    dev.submit_timed(s1, Engine::Compute, 2.5, "k");
    std::vector<float> back(buf.size());
    dev.d2h_async(std::span<float>(back), buf, s1);
    dev.sync_all();
    return dev.elapsed_ms();
  };
  EXPECT_DOUBLE_EQ(run(group.device(0)), run(bare));
}

TEST(DeviceGroup, RejectsEmptyAndBadTopology) {
  EXPECT_THROW(DeviceGroup(std::vector<GpuSpec>{}), Error);
  EXPECT_THROW(DeviceGroup(0, geforce_8800_gt()), Error);
  EXPECT_THROW(DeviceGroup(2, geforce_8800_gt(),
                           std::make_shared<PcieTreeTopology>(2, 0.0, 1.0)),
               Error);
}

// ---- Health scoreboard & quarantine ----

TEST(DeviceGroupHealth, SweepQuarantinesMembersPastTheWindowedThreshold) {
  DeviceGroup group(3, geforce_8800_gts());
  ASSERT_EQ(group.health_policy().quarantine_threshold, 3u);

  // Recovery work is not an incident: a member that recomputed, failed
  // over and evicted heavily, without misbehaving itself, stays in.
  DeviceHealth& busy = group.device(2).health();
  busy.verify_recomputes += 1000;
  busy.device_lost_failovers += 1000;
  busy.oom_evictions += 1000;
  busy.oom_retries += 1000;
  busy.watermark_evictions += 1000;

  // Two incidents inside one window: below the threshold, no action.
  group.device(1).health().verify_failures += 2;
  EXPECT_TRUE(group.sweep_health().empty());
  EXPECT_FALSE(group.quarantined(1));
  EXPECT_FALSE(group.quarantined(2));

  // The sweep re-anchored the window, so two more still do not trip it —
  // old incidents age out instead of condemning a device forever.
  group.device(1).health().verify_failures += 2;
  EXPECT_TRUE(group.sweep_health().empty());

  // Three fresh incidents in one window: quarantined.
  group.device(1).health().verify_failures += 3;
  const auto newly = group.sweep_health();
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0], 1u);
  EXPECT_TRUE(group.quarantined(1));
  EXPECT_EQ(group.quarantines_total(), 1u);

  // The schedulable set shrinks; alive membership does not.
  EXPECT_EQ(group.alive_count(), 3u);
  const auto sched = group.schedulable_members();
  ASSERT_EQ(sched.size(), 2u);
  EXPECT_EQ(sched[0], 0u);
  EXPECT_EQ(sched[1], 2u);
  EXPECT_EQ(group.schedulable_count(), 2u);
}

TEST(DeviceGroupHealth, LastSchedulableMemberIsNeverQuarantined) {
  DeviceGroup group(2, geforce_8800_gts());
  group.device(0).health().verify_failures += 5;
  ASSERT_EQ(group.sweep_health().size(), 1u);
  EXPECT_TRUE(group.quarantined(0));

  // Member 1 now carries the fleet; no matter how it misbehaves, the
  // sweep must keep one member serving.
  group.device(1).health().verify_failures += 50;
  EXPECT_TRUE(group.sweep_health().empty());
  EXPECT_FALSE(group.quarantined(1));
  EXPECT_EQ(group.schedulable_count(), 1u);
}

TEST(DeviceGroupHealth, CleanProbesReinstateAfterTheConfiguredStreak) {
  HealthPolicy policy;
  policy.quarantine_threshold = 1;
  policy.clean_probes_to_reinstate = 2;
  DeviceGroup group(3, geforce_8800_gts());
  group.set_health_policy(policy);

  group.device(2).health().transient_retries += 1;
  ASSERT_EQ(group.sweep_health().size(), 1u);
  ASSERT_TRUE(group.quarantined(2));

  // One clean probe is not enough; a failed probe resets the streak.
  EXPECT_FALSE(group.note_clean_probe(2));
  group.note_failed_probe(2);
  EXPECT_FALSE(group.note_clean_probe(2));
  EXPECT_TRUE(group.note_clean_probe(2));
  EXPECT_FALSE(group.quarantined(2));
  EXPECT_EQ(group.reinstatements_total(), 1u);
  EXPECT_EQ(group.schedulable_count(), 3u);
}

TEST(DeviceGroupHealth, ScheduleFallsBackToAliveWhenAllAreQuarantined) {
  // Quarantine can only be entered while another member still serves,
  // but a member can die *after* its peers were quarantined. The
  // schedulable set must then fall back to the alive set rather than
  // going empty.
  HealthPolicy policy;
  policy.quarantine_threshold = 1;
  DeviceGroup group(2, geforce_8800_gts());
  group.set_health_policy(policy);
  group.device(0).health().verify_failures += 1;
  ASSERT_EQ(group.sweep_health().size(), 1u);
  group.faults(1).arm(FaultKind::DeviceLost, 1);
  EXPECT_THROW(group.device(1).alloc<float>(16), DeviceLostError);
  ASSERT_TRUE(group.device(1).lost());
  const auto sched = group.schedulable_members();
  ASSERT_EQ(sched.size(), 1u);
  EXPECT_EQ(sched[0], 0u);
}

}  // namespace
}  // namespace repro::sim
