// End-to-end fault recovery across the plan stack: checksummed re-staging
// under transient/corrupt PCIe faults (bit-identical results), device-lost
// failover in the sharded plans, RAII lease hygiene when an execute
// throws, and the registry/cache byte watermark.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpufft/cache.h"
#include "gpufft/outofcore.h"
#include "gpufft/registry.h"
#include "gpufft/sharded.h"
#include "sim/topology/peer_mesh.h"

namespace repro::gpufft {
namespace {

using sim::FaultKind;

bool bit_identical(const std::vector<cxf>& a, const std::vector<cxf>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].re != b[i].re || a[i].im != b[i].im) return false;
  }
  return true;
}

/// Fault-free reference: run `desc` on a fresh device via execute_host.
std::vector<cxf> single_device_reference(const PlanDesc& desc,
                                         const std::vector<cxf>& input) {
  Device dev(sim::geforce_8800_gts());
  auto plan = PlanRegistry::of(dev).get_or_create(desc);
  std::vector<cxf> data = input;
  plan->execute_host(std::span<cxf>(data));
  return data;
}

// ---- Transient / corruption recovery across every plan kind ----

/// Run `desc` twice on fresh devices — fault-free, then with a window of
/// `kind` faults armed — and require bit-identical output plus evidence
/// the recovery policy actually acted.
void expect_recovered_bit_identical(const PlanDesc& desc,
                                    const std::vector<cxf>& input,
                                    FaultKind kind, std::uint64_t nth,
                                    std::uint64_t count) {
  const auto ref = single_device_reference(desc, input);

  Device dev(sim::geforce_8800_gts());
  auto plan = PlanRegistry::of(dev).get_or_create(desc);
  const sim::DeviceHealth before = dev.health();
  dev.faults().arm(kind, nth, count);
  std::vector<cxf> data = input;
  plan->execute_host(std::span<cxf>(data));
  const sim::DeviceHealth after = dev.health();

  EXPECT_TRUE(bit_identical(data, ref)) << desc.to_string();
  EXPECT_EQ(dev.faults().fired(kind), count) << desc.to_string();
  if (kind == FaultKind::TransferTransient) {
    EXPECT_EQ(after.transient_retries - before.transient_retries, count);
  } else {
    EXPECT_EQ(after.corruption_restages - before.corruption_restages, count);
  }
}

TEST(FaultRecovery, TransientRetriesLeaveEveryPlanKindBitIdentical) {
  const std::size_t n = 32;
  const auto cube_input = random_complex<float>(n * n * n, 101);
  const auto real_input =
      random_complex<float>((n / 2 + 1) * n * n, 102);
  // Three consecutive failures of one transfer: recovery needs attempts
  // 2, 3 and 4 of the staged loop (max_attempts = 4).
  expect_recovered_bit_identical(
      PlanDesc::bandwidth3d(cube(n), Direction::Forward, Precision::F32),
      cube_input, FaultKind::TransferTransient, 1, 3);
  expect_recovered_bit_identical(
      PlanDesc::real3d(cube(n), Direction::Forward), real_input,
      FaultKind::TransferTransient, 2, 3);
  expect_recovered_bit_identical(
      PlanDesc::out_of_core(n, 4, Direction::Forward), cube_input,
      FaultKind::TransferTransient, 5, 3);
}

TEST(FaultRecovery, CorruptionRestagesLeaveEveryPlanKindBitIdentical) {
  const std::size_t n = 32;
  const auto cube_input = random_complex<float>(n * n * n, 103);
  const auto real_input =
      random_complex<float>((n / 2 + 1) * n * n, 104);
  expect_recovered_bit_identical(
      PlanDesc::bandwidth3d(cube(n), Direction::Forward, Precision::F32),
      cube_input, FaultKind::TransferCorrupt, 1, 1);
  expect_recovered_bit_identical(
      PlanDesc::real3d(cube(n), Direction::Inverse), real_input,
      FaultKind::TransferCorrupt, 2, 1);
  expect_recovered_bit_identical(
      PlanDesc::out_of_core(n, 4, Direction::Inverse), cube_input,
      FaultKind::TransferCorrupt, 7, 2);
}

TEST(FaultRecovery, ShardedTransientAndCorruptionAreBitIdentical) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto input = random_complex<float>(n * n * n, 105);

  sim::DeviceGroup ref_group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan ref_plan(ref_group, n, shards, Direction::Forward);
  std::vector<cxf> ref = input;
  ref_plan.execute(std::span<cxf>(ref));

  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
  group.faults(1).arm(FaultKind::TransferTransient, 3, 3);
  group.faults(0).arm(FaultKind::TransferCorrupt, 2, 1);
  std::vector<cxf> data = input;
  plan.execute(std::span<cxf>(data));

  // Each recovery lands on the member whose link faulted.
  EXPECT_TRUE(bit_identical(data, ref));
  EXPECT_EQ(group.device(1).health().transient_retries, 3u);
  EXPECT_EQ(group.device(0).health().transient_retries, 0u);
  EXPECT_EQ(group.device(0).health().corruption_restages, 1u);
  EXPECT_EQ(group.device(1).health().corruption_restages, 0u);
  EXPECT_EQ(group.health_sum().device_lost_failovers, 0u);
}

TEST(FaultRecovery, ShardedRealTransientIsBitIdentical) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto input = random_complex<float>((n / 2 + 1) * n * n, 106);

  sim::DeviceGroup ref_group(2, sim::geforce_8800_gts());
  ShardedRealFft3DPlan ref_plan(ref_group, n, shards, Direction::Forward);
  std::vector<cxf> ref = input;
  ref_plan.execute(std::span<cxf>(ref));

  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedRealFft3DPlan plan(group, n, shards, Direction::Forward);
  group.faults(0).arm(FaultKind::TransferTransient, 4, 2);
  std::vector<cxf> data = input;
  plan.execute(std::span<cxf>(data));
  EXPECT_TRUE(bit_identical(data, ref));
}

// ---- Device-lost failover ----

/// Ops per execute on member `victim` (occurrence domain of DeviceLost),
/// measured with a disarmed injector attached — counting is identical to
/// an armed run up to the first fire.
std::uint64_t probe_ops_per_execute(std::size_t n, std::size_t shards,
                                    std::size_t devices, std::size_t victim,
                                    const std::vector<cxf>& input,
                                    std::vector<cxf>* ref_out) {
  sim::DeviceGroup group(devices, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
  auto& inj = group.faults(victim);
  inj.reset_counters();
  std::vector<cxf> data = input;
  plan.execute(std::span<cxf>(data));
  if (ref_out != nullptr) *ref_out = std::move(data);
  return inj.occurrences(FaultKind::DeviceLost);
}

TEST(FaultRecovery, DeviceLostAtAnyPhaseYieldsBitIdenticalResult) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto input = random_complex<float>(n * n * n, 107);
  std::vector<cxf> ref;
  const std::uint64_t ops =
      probe_ops_per_execute(n, shards, 2, 1, input, &ref);
  ASSERT_GT(ops, 2u);

  // Kill member 1 early (lease allocation / first uploads), mid-run
  // (around the exchange), and on its very last operation (deep into
  // phase 2, after host_data was partially overwritten).
  for (const std::uint64_t nth : {std::uint64_t{1}, ops / 2, ops}) {
    sim::DeviceGroup group(2, sim::geforce_8800_gts());
    ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
    group.faults(1).arm(FaultKind::DeviceLost, nth);
    std::vector<cxf> data = input;
    const ShardedTiming t = plan.execute(std::span<cxf>(data));

    EXPECT_TRUE(bit_identical(data, ref)) << "nth=" << nth;
    // The failover is charged to the lost member, and only to it.
    EXPECT_EQ(group.device(1).health().device_lost_failovers, 1u);
    EXPECT_EQ(group.device(0).health().device_lost_failovers, 0u);
    EXPECT_TRUE(group.device(1).lost());
    EXPECT_EQ(group.alive_count(), 1u);
    // The recovered run kept per-ordinal reporting: the survivor's rows
    // carry the whole volume, the lost card contributes nothing.
    ASSERT_EQ(t.devices.size(), 2u);
    EXPECT_GT(t.devices[0].busy_ms(), 0.0);
    EXPECT_EQ(t.devices[1].busy_ms(), 0.0);

    // The group keeps working for the next volume without re-planning.
    std::vector<cxf> again = input;
    plan.execute(std::span<cxf>(again));
    EXPECT_TRUE(bit_identical(again, ref)) << "nth=" << nth;
  }
}

TEST(FaultRecovery, DeviceLostFallsBackToDividingSurvivorSubset) {
  // Four cards, shards = 4: losing one leaves 3 survivors, which divides
  // neither shards nor n/shards — the failover must shrink to 2.
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto input = random_complex<float>(n * n * n, 108);
  std::vector<cxf> ref;
  probe_ops_per_execute(n, shards, 4, 3, input, &ref);

  sim::DeviceGroup group(4, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
  group.faults(3).arm(FaultKind::DeviceLost, 1);
  std::vector<cxf> data = input;
  const ShardedTiming t = plan.execute(std::span<cxf>(data));

  EXPECT_TRUE(bit_identical(data, ref));
  EXPECT_EQ(group.alive_count(), 3u);
  // Members 0 and 1 carried the rerun; member 2 sat out (3 does not
  // divide the phase extents), member 3 is dead.
  EXPECT_GT(t.devices[0].busy_ms(), 0.0);
  EXPECT_GT(t.devices[1].busy_ms(), 0.0);
  EXPECT_EQ(t.devices[2].busy_ms(), 0.0);
  EXPECT_EQ(t.devices[3].busy_ms(), 0.0);
}

TEST(FaultRecovery, DeviceLostReshardsOverPeerMeshExchange) {
  // The failover path on a peer fabric: the all-to-all rides d2d legs,
  // and a card dying mid-exchange must re-shard onto a surviving subset
  // that still routes peer-to-peer (mesh {0, 2} after losing 1).
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto input = random_complex<float>(n * n * n, 109);

  // Probe the occurrence domain and the reference on an identical mesh
  // (peer runs count different ops than host-staged ones).
  std::vector<cxf> ref;
  std::uint64_t ops = 0;
  {
    sim::DeviceGroup mesh(4, sim::geforce_8800_gts(),
                          std::make_shared<sim::PeerMeshTopology>(4));
    ShardedFft3DPlan plan(mesh, n, shards, Direction::Forward);
    auto& inj = mesh.faults(1);
    inj.reset_counters();
    std::vector<cxf> data = input;
    plan.execute(std::span<cxf>(data));
    ASSERT_EQ(plan.last_layout().exchange, Exchange::Peer);
    ref = std::move(data);
    ops = inj.occurrences(FaultKind::DeviceLost);
  }
  ASSERT_GT(ops, 2u);

  for (const std::uint64_t nth : {std::uint64_t{1}, ops / 2, ops}) {
    sim::DeviceGroup mesh(4, sim::geforce_8800_gts(),
                          std::make_shared<sim::PeerMeshTopology>(4));
    ShardedFft3DPlan plan(mesh, n, shards, Direction::Forward);
    mesh.faults(1).arm(FaultKind::DeviceLost, nth);
    std::vector<cxf> data = input;
    const ShardedTiming t = plan.execute(std::span<cxf>(data));

    EXPECT_TRUE(bit_identical(data, ref)) << "nth=" << nth;
    EXPECT_GE(mesh.device(1).health().device_lost_failovers, 1u);
    EXPECT_TRUE(mesh.device(1).lost());
    // The rerun still used direct legs over the surviving pair — not a
    // silent host-staged downgrade.
    EXPECT_EQ(plan.last_layout().exchange, Exchange::Peer);
    EXPECT_EQ(plan.last_layout().members, 2u);
    ASSERT_EQ(t.devices.size(), 4u);
    EXPECT_GT(t.devices[0].busy_ms(), 0.0);
    EXPECT_EQ(t.devices[1].busy_ms(), 0.0);

    // The reduced fleet keeps serving volumes.
    std::vector<cxf> again = input;
    plan.execute(std::span<cxf>(again));
    EXPECT_TRUE(bit_identical(again, ref)) << "nth=" << nth;
  }
}

TEST(FaultRecovery, ShardedRealDeviceLostFailsOver) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto input = random_complex<float>((n / 2 + 1) * n * n, 109);

  sim::DeviceGroup ref_group(2, sim::geforce_8800_gts());
  ShardedRealFft3DPlan ref_plan(ref_group, n, shards, Direction::Inverse);
  std::vector<cxf> ref = input;
  ref_plan.execute(std::span<cxf>(ref));

  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedRealFft3DPlan plan(group, n, shards, Direction::Inverse);
  group.faults(0).arm(FaultKind::DeviceLost, 40);
  std::vector<cxf> data = input;
  plan.execute(std::span<cxf>(data));
  EXPECT_TRUE(bit_identical(data, ref));
  EXPECT_EQ(group.alive_count(), 1u);
}

TEST(FaultRecovery, AllDevicesLostPropagatesTypedError) {
  const std::size_t n = 32;
  const auto input = random_complex<float>(n * n * n, 110);
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, n, 4, Direction::Forward);
  group.faults(0).arm(FaultKind::DeviceLost, 1);
  group.faults(1).arm(FaultKind::DeviceLost, 1);
  std::vector<cxf> data = input;
  EXPECT_THROW(plan.execute(std::span<cxf>(data)), sim::DeviceLostError);
  EXPECT_EQ(group.alive_count(), 0u);
}

// ---- The per-device recovery ledger ----

/// Every field of a ledger, so a zero check cannot miss a counter.
std::vector<std::uint64_t> ledger_fields(const sim::DeviceHealth& h) {
  return {h.verify_failures,       h.corruption_restages,
          h.transient_retries,     h.verify_recomputes,
          h.device_lost_failovers, h.oom_evictions,
          h.oom_retries,           h.watermark_evictions};
}

TEST(FaultRecovery, LedgerChargesTheActingMemberAndStaysInItsGroup) {
  // Two 2-card groups in one process run the same three plans; only
  // group A takes faults. Each recovery must land on the member that
  // acted, and none may leak into group B's ledgers.
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto input = random_complex<float>(n * n * n, 114);
  const auto run = [&](sim::DeviceGroup& group, bool faulty) {
    std::vector<std::vector<cxf>> out;
    ShardedFft3DPlan plan(group, n, shards, Direction::Forward);

    // A sharded execute through a burst of three transients on member 1.
    if (faulty) group.faults(1).arm(FaultKind::TransferTransient, 3, 3);
    out.push_back(input);
    plan.execute(std::span<cxf>(out.back()));
    if (faulty) group.faults(1).disarm_all();

    // A Parseval-verified execute that one silent corruption disturbs.
    ExecPolicy verified;
    verified.verify = VerifyPolicy::Parseval;
    verified.verify_attempts = 3;
    plan.set_exec_policy(verified);
    if (faulty) {
      group.faults(0).reset_counters();
      group.faults(0).arm(FaultKind::KernelCorrupt, 2, 1);
    }
    out.push_back(input);
    plan.execute(std::span<cxf>(out.back()));
    if (faulty) group.faults(0).disarm_all();

    // A pipelined batch that loses member 1.
    plan.set_exec_policy(ExecPolicy{});
    if (faulty) {
      group.faults(1).reset_counters();
      group.faults(1).arm(FaultKind::DeviceLost, 1);
    }
    for (std::uint64_t k = 0; k < 3; ++k) {
      out.push_back(random_complex<float>(n * n * n, 115 + k));
    }
    std::vector<std::span<cxf>> spans(out.end() - 3, out.end());
    plan.execute_batch(spans, BatchMode::Pipelined);
    return out;
  };

  sim::DeviceGroup a(2, sim::geforce_8800_gts());
  sim::DeviceGroup b(2, sim::geforce_8800_gts());
  const auto out_a = run(a, true);
  const auto out_b = run(b, false);
  for (std::size_t k = 0; k < out_a.size(); ++k) {
    EXPECT_TRUE(bit_identical(out_a[k], out_b[k])) << "run " << k;
  }

  EXPECT_TRUE(a.device(1).lost());
  EXPECT_EQ(a.device(1).health().transient_retries, 3u);
  EXPECT_GE(a.device(1).health().device_lost_failovers, 1u);
  EXPECT_EQ(a.device(0).health().device_lost_failovers, 0u);
  EXPECT_GE(a.health_sum().verify_failures, 1u);
  EXPECT_GE(a.health_sum().verify_recomputes, 1u);

  for (std::size_t i = 0; i < b.size(); ++i) {
    for (const std::uint64_t v : ledger_fields(b.device(i).health())) {
      EXPECT_EQ(v, 0u) << "group B member " << i;
    }
  }
}

// ---- RAII hygiene: a throwing execute leaks nothing ----

TEST(FaultRecovery, ThrowingExecuteReleasesLeasesAndTwiddles) {
  const std::size_t n = 32;
  const auto input = random_complex<float>(n * n * n, 111);
  Device dev(sim::geforce_8800_gts());
  auto& cache = ResourceCache::of(dev);
  auto plan = PlanRegistry::of(dev).get_or_create(
      PlanDesc::out_of_core(n, 4, Direction::Forward));

  std::vector<cxf> ref = input;
  plan->execute_host(std::span<cxf>(ref));
  EXPECT_EQ(cache.workspace_in_use_bytes(), 0u);
  const std::size_t tables = cache.twiddle_tables();

  // Unrecoverable corruption: every transfer delivers a damaged payload,
  // so the staged loop exhausts its re-stages and throws.
  dev.faults().arm(FaultKind::TransferCorrupt, 1, std::uint64_t{1} << 40);
  std::vector<cxf> data = input;
  try {
    plan->execute_host(std::span<cxf>(data));
    FAIL() << "expected TransferCorruptionError";
  } catch (const sim::TransferCorruptionError& e) {
    EXPECT_EQ(e.attempts(), 4);
    // The plan layer stamped its label onto the in-flight error.
    EXPECT_NE(std::string(e.what()).find("plan["), std::string::npos);
  }
  EXPECT_EQ(cache.workspace_in_use_bytes(), 0u);
  EXPECT_EQ(cache.twiddle_tables(), tables);

  // Same exhaustion for transients.
  dev.faults().disarm_all();
  dev.faults().arm(FaultKind::TransferTransient, 1, std::uint64_t{1} << 40);
  data = input;
  EXPECT_THROW(plan->execute_host(std::span<cxf>(data)),
               sim::TransientTransferError);
  EXPECT_EQ(cache.workspace_in_use_bytes(), 0u);

  // After disarming the plan works again, bit-identically.
  dev.faults().disarm_all();
  data = input;
  plan->execute_host(std::span<cxf>(data));
  EXPECT_TRUE(bit_identical(data, ref));
}

// ---- Memory watermark ----

TEST(FaultRecovery, WatermarkEvictsInsteadOfGrowing) {
  Device dev(sim::geforce_8800_gts());
  auto& reg = PlanRegistry::of(dev);
  const std::size_t budget = 6u << 20;  // 6 MB
  reg.set_byte_watermark(budget);
  EXPECT_EQ(ResourceCache::of(dev).byte_watermark(), budget);

  const auto input = random_complex<float>(64 * 64 * 64, 112);
  for (int round = 0; round < 2; ++round) {
    for (const std::size_t n : {16u, 32u, 64u}) {
      for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
        auto plan = reg.get_or_create(
            PlanDesc::bandwidth3d(cube(n), dir, Precision::F32));
        std::vector<cxf> data(input.begin(),
                              input.begin() + n * n * n);
        plan->execute_host(std::span<cxf>(data));
      }
    }
  }
  EXPECT_LE(dev.peak_allocated_bytes(), budget);
  EXPECT_GT(dev.health().watermark_evictions, 0u);

  // Still correct under the budget.
  auto plan = reg.get_or_create(
      PlanDesc::bandwidth3d(cube(32), Direction::Forward, Precision::F32));
  std::vector<cxf> data(input.begin(), input.begin() + 32 * 32 * 32);
  plan->execute_host(std::span<cxf>(data));
  const auto ref = single_device_reference(
      PlanDesc::bandwidth3d(cube(32), Direction::Forward, Precision::F32),
      std::vector<cxf>(input.begin(), input.begin() + 32 * 32 * 32));
  EXPECT_TRUE(bit_identical(data, ref));
}

TEST(FaultRecovery, GroupWatermarkBoundsPeakBytesInFlight) {
  // Many sharded shapes against a group registry: resident plans hold
  // full-volume host staging, so without a budget the working set climbs
  // with every distinct shape; the watermark must evict old plans instead
  // of letting the footprint grow past it — and never throw.
  const auto input = random_complex<float>(64 * 64 * 64, 113);
  auto stress = [&](PlanRegistry& reg) {
    for (int round = 0; round < 2; ++round) {
      for (const std::size_t n : {16u, 32u, 64u}) {
        for (const Direction dir :
             {Direction::Forward, Direction::Inverse}) {
          auto plan =
              reg.get_or_create(PlanDesc::sharded3d(n, 4, dir));
          std::vector<cxf> data(input.begin(),
                                input.begin() + n * n * n);
          plan->execute_host(std::span<cxf>(data));
        }
      }
    }
  };

  const std::size_t budget = 9u << 19;  // 4.5 MB

  // Control: without the watermark the stress exceeds the budget.
  sim::DeviceGroup loose(2, sim::geforce_8800_gts());
  stress(PlanRegistry::of(loose));
  EXPECT_GT(loose.peak_bytes_in_flight(), budget);

  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  auto& reg = PlanRegistry::of(group);
  reg.set_byte_watermark(budget);
  stress(reg);

  EXPECT_LE(group.peak_bytes_in_flight(), budget);
  EXPECT_GT(reg.byte_evictions(), 0u);
  EXPECT_GT(group.health_sum().watermark_evictions, 0u);

  // Evicted-and-rebuilt plans still agree with a fresh fleet.
  auto plan = reg.get_or_create(
      PlanDesc::sharded3d(32, 4, Direction::Forward));
  std::vector<cxf> data(input.begin(), input.begin() + 32 * 32 * 32);
  plan->execute_host(std::span<cxf>(data));

  sim::DeviceGroup fresh(2, sim::geforce_8800_gts());
  ShardedFft3DPlan fresh_plan(fresh, 32, 4, Direction::Forward);
  std::vector<cxf> ref(input.begin(), input.begin() + 32 * 32 * 32);
  fresh_plan.execute(std::span<cxf>(ref));
  EXPECT_TRUE(bit_identical(data, ref));
}

TEST(FaultRecovery, OomRecoveryEnrichedWithPlanLabel) {
  // Exhaust a card with an injected OOM during plan construction when
  // there is nothing left to evict: the error must escape with the plan
  // label and the allocator picture intact.
  Device dev(sim::geforce_8800_gts());
  auto& reg = PlanRegistry::of(dev);
  dev.faults().arm(FaultKind::AllocFail, 1, std::uint64_t{1} << 40);
  try {
    auto plan = reg.get_or_create(
        PlanDesc::bandwidth3d(cube(32), Direction::Forward, Precision::F32));
    FAIL() << "expected OutOfDeviceMemory";
  } catch (const sim::OutOfDeviceMemory& e) {
    EXPECT_TRUE(e.injected());
    EXPECT_NE(std::string(e.what()).find("while building plan ["),
              std::string::npos);
  }
  dev.faults().disarm_all();
  // Construction works after the pressure clears.
  auto plan = reg.get_or_create(
      PlanDesc::bandwidth3d(cube(32), Direction::Forward, Precision::F32));
  EXPECT_NE(plan, nullptr);
}

}  // namespace
}  // namespace repro::gpufft
