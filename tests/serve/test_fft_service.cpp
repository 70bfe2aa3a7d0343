// FftService: admission control, mixed-workload draining, latency
// accounting, and mid-stream fault tolerance.
#include "serve/fft_service.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.h"
#include "serve/workload.h"
#include "sim/fault.h"
#include "sim/topology/peer_mesh.h"

namespace repro::serve {
namespace {

using gpufft::Direction;
using gpufft::PlanDesc;

bool bit_identical(std::span<const cxf> a, std::span<const cxf> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].re != b[i].re || a[i].im != b[i].im) return false;
  }
  return true;
}

TEST(FftService, DrainsMixedSmokeWorkload) {
  sim::DeviceGroup group(4, sim::geforce_8800_gts());
  FftService service(group);
  Workload workload(WorkloadSpec::smoke());
  for (const auto& req : workload.requests()) {
    ASSERT_EQ(service.submit(req), Admission::Accepted) << req.id;
  }
  EXPECT_EQ(service.queue_depth(), workload.requests().size());

  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.completed, workload.requests().size());
  EXPECT_EQ(rep.rejected_queue_full, 0u);
  EXPECT_EQ(rep.rejected_bytes, 0u);
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_GT(rep.volumes_per_sec, 0.0);
  EXPECT_GT(rep.latency.p50_ms, 0.0);
  EXPECT_GE(rep.latency.p99_ms, rep.latency.p50_ms);
  EXPECT_GE(rep.latency.max_ms, rep.latency.p99_ms);
  EXPECT_EQ(rep.max_queue_depth, workload.requests().size());
  // The report names the fabric it served over (the default tree here).
  EXPECT_EQ(rep.topology, "pcie-tree");
  EXPECT_DOUBLE_EQ(rep.bisection_gbs, 12.8 / 2.0);
  // Every request completed at or after its arrival.
  std::vector<bool> seen(workload.requests().size(), false);
  for (const auto& c : rep.completions) {
    EXPECT_GT(c.latency_ms, 0.0) << c.id;
    seen[c.id] = true;
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "request " << i << " was dropped";
  }
}

TEST(FftService, ResultsMatchDirectExecution) {
  const std::size_t n = 32;
  const auto desc = PlanDesc::sharded3d(n, 4, Direction::Forward);
  std::vector<std::vector<cxf>> volumes;
  for (std::size_t k = 0; k < 3; ++k) {
    volumes.push_back(random_complex<float>(n * n * n, 40 + k));
  }
  // Reference: the serial sharded plan on an identical fresh fleet.
  std::vector<std::vector<cxf>> expect = volumes;
  {
    sim::DeviceGroup ref_group(2, sim::geforce_8800_gts());
    gpufft::ShardedFft3DPlan ref(ref_group, n, 4, Direction::Forward);
    for (auto& v : expect) ref.execute(std::span<cxf>(v));
  }

  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  FftService service(group);
  for (std::size_t k = 0; k < volumes.size(); ++k) {
    FftRequest req;
    req.id = k;
    req.desc = desc;
    req.data = std::span<cxf>(volumes[k]);
    req.arrival_ms = 0.1 * static_cast<double>(k);
    ASSERT_EQ(service.submit(req), Admission::Accepted);
  }
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.completed, volumes.size());
  for (std::size_t k = 0; k < volumes.size(); ++k) {
    EXPECT_TRUE(bit_identical(volumes[k], expect[k])) << k;
  }
}

TEST(FftService, ServesOverPeerFabricsAndReportsTheTopology) {
  // Same requests over a mesh fleet: identical results (the exchange
  // path is functionally invisible) and the report names the fabric.
  const std::size_t n = 32;
  const auto desc = PlanDesc::sharded3d(n, 4, Direction::Forward);
  std::vector<std::vector<cxf>> volumes;
  for (std::size_t k = 0; k < 2; ++k) {
    volumes.push_back(random_complex<float>(n * n * n, 60 + k));
  }
  std::vector<std::vector<cxf>> expect = volumes;
  {
    sim::DeviceGroup ref_group(2, sim::geforce_8800_gts());
    gpufft::ShardedFft3DPlan ref(ref_group, n, 4, Direction::Forward);
    for (auto& v : expect) ref.execute(std::span<cxf>(v));
  }

  sim::DeviceGroup mesh(4, sim::geforce_8800_gts(),
                        std::make_shared<sim::PeerMeshTopology>(4));
  FftService service(mesh);
  for (std::size_t k = 0; k < volumes.size(); ++k) {
    FftRequest req;
    req.id = k;
    req.desc = desc;
    req.data = std::span<cxf>(volumes[k]);
    req.arrival_ms = 0.1 * static_cast<double>(k);
    ASSERT_EQ(service.submit(req), Admission::Accepted);
  }
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.completed, volumes.size());
  EXPECT_EQ(rep.topology, "peer-mesh");
  EXPECT_DOUBLE_EQ(rep.bisection_gbs, 2.0 * 16.0);
  for (std::size_t k = 0; k < volumes.size(); ++k) {
    EXPECT_TRUE(bit_identical(volumes[k], expect[k])) << k;
  }
}

TEST(FftService, RejectsWhenQueueIsFull) {
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ServiceConfig cfg;
  cfg.max_queue_depth = 2;
  FftService service(group, cfg);
  const std::size_t n = 32;
  const auto desc = PlanDesc::sharded3d(n, 4, Direction::Forward);
  std::vector<std::vector<cxf>> volumes;
  for (std::size_t k = 0; k < 3; ++k) {
    volumes.push_back(random_complex<float>(n * n * n, 80 + k));
  }
  EXPECT_EQ(service.submit({0, desc, std::span<cxf>(volumes[0]), 0.0}),
            Admission::Accepted);
  EXPECT_EQ(service.submit({1, desc, std::span<cxf>(volumes[1]), 0.0}),
            Admission::Accepted);
  EXPECT_EQ(service.submit({2, desc, std::span<cxf>(volumes[2]), 0.0}),
            Admission::RejectedQueueFull);

  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.rejected_queue_full, 1u);
  EXPECT_EQ(rep.max_queue_depth, 2u);
}

TEST(FftService, WrongSizeRequestNamesBothCounts) {
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  FftService service(group);
  const auto desc = PlanDesc::sharded3d(32, 4, Direction::Forward);
  std::vector<cxf> volume(100);
  try {
    service.submit({7, desc, std::span<cxf>(volume), 0.0});
    FAIL() << "a 100-element request must not be admitted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("request 7 holds 100 elements; its plan[" +
                       desc.to_string() + "] takes 32768"),
              std::string::npos)
        << msg;
  }
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(FftService, RejectsRequestsOverTheByteWatermark) {
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ServiceConfig cfg;
  cfg.byte_watermark = 1u << 20;  // 1 MiB: fits 32^3, not 128^3
  FftService service(group, cfg);
  auto small = random_complex<float>(32 * 32 * 32, 5);
  auto large = random_complex<float>(128 * 128 * 128, 6);
  EXPECT_EQ(
      service.submit({0,
                      PlanDesc::sharded3d(32, 4, Direction::Forward),
                      std::span<cxf>(small), 0.0}),
      Admission::Accepted);
  EXPECT_EQ(
      service.submit({1,
                      PlanDesc::sharded3d(128, 8, Direction::Forward),
                      std::span<cxf>(large), 0.0}),
      Admission::RejectedBytes);
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.completed, 1u);
  EXPECT_EQ(rep.rejected_bytes, 1u);
  // The watermark was armed on the group registry too (PR 5 semantics).
  EXPECT_EQ(gpufft::PlanRegistry::of(group).byte_watermark(), 1u << 20);
}

TEST(FftService, MidStreamDeviceLostCompletesEveryAdmittedRequest) {
  const std::size_t n = 32;
  const auto desc = PlanDesc::sharded3d(n, 4, Direction::Forward);
  std::vector<std::vector<cxf>> volumes;
  for (std::size_t k = 0; k < 6; ++k) {
    volumes.push_back(random_complex<float>(n * n * n, 60 + k));
  }
  std::vector<std::vector<cxf>> expect = volumes;
  {
    sim::DeviceGroup ref_group(2, sim::geforce_8800_gts());
    gpufft::ShardedFft3DPlan ref(ref_group, n, 4, Direction::Forward);
    for (auto& v : expect) ref.execute(std::span<cxf>(v));
  }

  sim::DeviceGroup group(4, sim::geforce_8800_gts());
  // Lose a member mid-drain: deep enough that several requests are
  // already queued behind the one in flight.
  group.faults(1).arm(sim::FaultKind::DeviceLost, 40);
  FftService service(group);
  for (std::size_t k = 0; k < volumes.size(); ++k) {
    FftRequest req;
    req.id = k;
    req.desc = desc;
    req.data = std::span<cxf>(volumes[k]);
    req.arrival_ms = 0.05 * static_cast<double>(k);
    ASSERT_EQ(service.submit(req), Admission::Accepted);
  }
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.completed, volumes.size()) << "a queued request was dropped";
  EXPECT_GE(rep.device_lost_failovers, 1u);
  EXPECT_EQ(group.alive_count(), 3u);
  for (std::size_t k = 0; k < volumes.size(); ++k) {
    EXPECT_TRUE(bit_identical(volumes[k], expect[k])) << k;
  }
}

TEST(FftService, FusesBatchesUpToMaxBatch) {
  sim::DeviceGroup group(4, sim::geforce_8800_gts());
  ServiceConfig cfg;
  cfg.max_batch = 4;
  FftService service(group, cfg);
  const std::size_t n = 32;
  const auto desc = PlanDesc::sharded3d(n, 4, Direction::Forward);
  std::vector<std::vector<cxf>> volumes;
  for (std::size_t k = 0; k < 8; ++k) {
    volumes.push_back(random_complex<float>(n * n * n, 70 + k));
    FftRequest req;
    req.id = k;
    req.desc = desc;
    req.data = std::span<cxf>(volumes.back());
    req.arrival_ms = 0.0;  // all present up front: two batches of 4
    ASSERT_EQ(service.submit(req), Admission::Accepted);
  }
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.completed, 8u);
  // Batches complete in id order (queue order is preserved) and every
  // completion records the strategy the planner chose for its batch.
  double prev = 0.0;
  for (const auto& c : rep.completions) {
    EXPECT_GE(c.done_ms, prev);
    prev = c.done_ms;
  }
}

// ---- SDC defense through the service ----

TEST(FftService, InvalidExecPolicyIsRejectedTyped) {
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ServiceConfig cfg;
  cfg.exec.staging.max_attempts = 0;
  try {
    FftService service(group, cfg);
    FAIL() << "expected InvalidPolicyError";
  } catch (const sim::InvalidPolicyError& e) {
    EXPECT_EQ(std::string(e.field()), "StagePolicy.max_attempts");
  }
  ServiceConfig cfg2;
  cfg2.exec.verify_attempts = 0;
  EXPECT_THROW(FftService(group, cfg2), sim::InvalidPolicyError);
}

TEST(FftService, FaultyWorkloadDrainsWithVerifiedRepairsAndFullLedger) {
  // The seeded smoke_faulty schedule: a hot KernelCorrupt window on one
  // member, a sparse seeded one on another, one transfer transient. With
  // Parseval on, everything must drain accounted — completed + typed
  // failures == admitted — with the repairs visible in the report.
  sim::DeviceGroup group(4, sim::geforce_8800_gts());
  const WorkloadSpec spec = WorkloadSpec::smoke_faulty();
  Workload workload(spec);
  ServiceConfig cfg;
  cfg.exec.verify = gpufft::VerifyPolicy::Parseval;
  FftService service(group, cfg);
  arm_faults(group, spec.faults);
  std::size_t admitted = 0;
  for (const auto& req : workload.requests()) {
    if (service.submit(req) == Admission::Accepted) ++admitted;
  }
  const ServiceReport rep = service.run();

  EXPECT_EQ(rep.completed + rep.failures.size(), admitted);
  EXPECT_GT(rep.completed, 0u);
  EXPECT_GT(rep.verify_failures, 0u);
  EXPECT_GT(rep.verify_recomputes, 0u);
  for (const auto& f : rep.failures) EXPECT_FALSE(f.error.empty());
  // The scoreboard is exported for every member, and the corrupting
  // members carry their incidents.
  ASSERT_EQ(rep.member_health.size(), 4u);
  std::uint64_t incidents = 0;
  for (const auto& m : rep.member_health) incidents += m.health.total();
  EXPECT_GT(incidents, 0u);
}

TEST(FftService, PersistentCorrupterIsQuarantinedAndReinstated) {
  // Member 1 corrupts every kernel launch for a long stretch: Parseval
  // keeps catching it, the windowed score trips the threshold, and the
  // member leaves the schedulable set while the fleet drains the queue.
  // The injector window closes before the post-drain probes, so clean
  // Full-verify probes earn the member its way back in.
  sim::DeviceGroup group(4, sim::geforce_8800_gts());
  ServiceConfig cfg;
  cfg.exec.verify = gpufft::VerifyPolicy::Parseval;
  cfg.exec.verify_attempts = 4;
  cfg.health.quarantine_threshold = 2;
  cfg.health.clean_probes_to_reinstate = 1;
  FftService service(group, cfg);
  group.faults(1).arm(sim::FaultKind::KernelCorrupt, 1, 400);

  const PlanDesc desc = PlanDesc::out_of_core(16, 2, Direction::Forward);
  std::vector<std::vector<cxf>> volumes;
  for (int i = 0; i < 6; ++i) {
    volumes.push_back(random_complex<float>(desc.buffer_elements(), 900 + i));
  }
  for (std::size_t i = 0; i < volumes.size(); ++i) {
    FftRequest req;
    req.id = i;
    req.desc = desc;
    req.data = volumes[i];
    req.arrival_ms = 0.01 * static_cast<double>(i);
    ASSERT_EQ(service.submit(req), Admission::Accepted);
  }
  const ServiceReport rep = service.run();

  EXPECT_EQ(rep.completed + rep.failures.size(), 6u);
  EXPECT_GT(rep.verify_failures, 0u);
  EXPECT_GE(rep.quarantines, 1u);
  EXPECT_GE(rep.reinstatements, 1u);
  // By run() exit the member is back in the schedulable set.
  EXPECT_FALSE(group.quarantined(1));
  EXPECT_EQ(group.schedulable_count(), 4u);
  ASSERT_EQ(rep.member_health.size(), 4u);
  EXPECT_GT(rep.member_health[1].health.verify_failures, 0u);
}

}  // namespace
}  // namespace repro::serve
