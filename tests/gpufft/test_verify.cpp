// ABFT result verification (gpufft/verify.h): the Parseval invariant has
// no false positives on any plan kind, detects injected silent kernel
// corruption (FaultKind::KernelCorrupt) and repairs it by bounded
// recompute to bit-identical results, surfaces a typed
// ResultVerificationError when the corruption outlasts the recompute
// budget, and costs nothing — in results or timeline — when the policy
// is Off. Policy validation rides along.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpufft/outofcore.h"
#include "gpufft/registry.h"
#include "gpufft/sharded.h"
#include "gpufft/batch_sharded.h"

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

std::vector<cxf> input_for(const PlanDesc& desc, std::uint64_t seed) {
  return random_complex<float>(desc.buffer_elements(), seed);
}

/// Fault-free reference under VerifyPolicy::Off on a fresh device.
std::vector<cxf> reference_run(const PlanDesc& desc,
                               const std::vector<cxf>& input) {
  Device dev(sim::geforce_8800_gts());
  auto plan = PlanRegistry::of(dev).get_or_create(desc);
  std::vector<cxf> data = input;
  plan->execute_host(std::span<cxf>(data));
  return data;
}

// ---- No false positives ----

TEST(Verify, ParsevalHasNoFalsePositivesOnAnyPlanKind) {
  const std::vector<PlanDesc> kinds = {
      PlanDesc::bandwidth3d(cube(32), Direction::Forward, Precision::F32),
      PlanDesc::bandwidth3d(cube(32), Direction::Inverse, Precision::F32),
      PlanDesc::conventional3d(cube(16), Direction::Forward),
      PlanDesc::mixed3d(Shape3{24, 20, 12}, Direction::Forward),
      PlanDesc::batch1d(64, 32, Direction::Forward),
      PlanDesc::out_of_core(32, 4, Direction::Forward),
      PlanDesc::out_of_core(32, 4, Direction::Inverse),
      PlanDesc::real3d(cube(32), Direction::Forward),
      PlanDesc::real3d(cube(32), Direction::Inverse),
  };
  for (const auto& desc : kinds) {
    const auto input = input_for(desc, 7001 + desc.hash() % 97);
    const auto ref = reference_run(desc, input);

    Device dev(sim::geforce_8800_gts());
    auto plan = PlanRegistry::of(dev).get_or_create(desc);
    ExecPolicy policy;
    policy.verify = VerifyPolicy::Parseval;
    plan->set_exec_policy(policy);
    std::vector<cxf> data = input;
    plan->execute_host(std::span<cxf>(data));

    // A legitimate run passes first try — no recomputes, no failures —
    // and verification never perturbs the data path.
    EXPECT_TRUE(bit_identical(data, ref)) << desc.to_string();
    EXPECT_EQ(dev.health().verify_failures, 0u) << desc.to_string();
    EXPECT_EQ(dev.health().verify_recomputes, 0u) << desc.to_string();
  }
}

// ---- Detection + repair ----

/// Arm a window of KernelCorrupt fires confined to the first execution
/// and require Parseval to catch it and the bounded recompute to restore
/// bit-identical output, attributed to the executing device's health.
void expect_corrupt_repaired(const PlanDesc& desc, std::uint64_t nth,
                             std::uint64_t count) {
  const auto input = input_for(desc, 7100 + nth);
  const auto ref = reference_run(desc, input);

  Device dev(sim::geforce_8800_gts());
  auto plan = PlanRegistry::of(dev).get_or_create(desc);
  ExecPolicy policy;
  policy.verify = VerifyPolicy::Parseval;
  policy.verify_attempts = 3;
  plan->set_exec_policy(policy);
  dev.faults().arm(FaultKind::KernelCorrupt, nth, count);
  std::vector<cxf> data = input;
  plan->execute_host(std::span<cxf>(data));

  EXPECT_TRUE(bit_identical(data, ref)) << desc.to_string();
  EXPECT_EQ(dev.faults().fired(FaultKind::KernelCorrupt), count)
      << desc.to_string();
  // The incident is the quarantine sweep's raw material; the recompute
  // is charged to the same device.
  EXPECT_GE(dev.health().verify_failures, 1u) << desc.to_string();
  EXPECT_GE(dev.health().verify_recomputes, 1u) << desc.to_string();
}

TEST(Verify, ParsevalRepairsKernelCorruptOnSingleCardPlans) {
  expect_corrupt_repaired(
      PlanDesc::bandwidth3d(cube(32), Direction::Forward, Precision::F32), 1,
      1);
  expect_corrupt_repaired(
      PlanDesc::bandwidth3d(cube(32), Direction::Inverse, Precision::F32), 2,
      1);
  expect_corrupt_repaired(PlanDesc::out_of_core(32, 4, Direction::Forward),
                          3, 2);
  expect_corrupt_repaired(PlanDesc::real3d(cube(32), Direction::Forward), 1,
                          1);
}

TEST(Verify, ParsevalRepairsKernelCorruptOnShardedPlans) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto input = random_complex<float>(n * n * n, 7201);

  sim::DeviceGroup ref_group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan ref_plan(ref_group, n, shards, Direction::Forward);
  std::vector<cxf> ref = input;
  ref_plan.execute(std::span<cxf>(ref));

  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
  ExecPolicy policy;
  policy.verify = VerifyPolicy::Parseval;
  policy.verify_attempts = 3;
  plan.set_exec_policy(policy);
  group.faults(1).arm(FaultKind::KernelCorrupt, 2, 1);
  std::vector<cxf> data = input;
  plan.execute(std::span<cxf>(data));

  EXPECT_TRUE(bit_identical(data, ref));
  EXPECT_EQ(group.faults(1).fired(FaultKind::KernelCorrupt), 1u);
  EXPECT_GE(group.health_sum().verify_failures, 1u);
  // Attribution lands on the member that ran the corrupted pass.
  EXPECT_GE(group.device(1).health().verify_failures, 1u);
  EXPECT_EQ(group.device(0).health().verify_failures, 0u);
}

TEST(Verify, ParsevalRepairsKernelCorruptOnBatchShardedPlans) {
  const std::size_t n = 32;
  const auto a = random_complex<float>(n * n * n, 7301);
  const auto b = random_complex<float>(n * n * n, 7302);
  const auto ref_a =
      reference_run(PlanDesc::out_of_core(n, 4, Direction::Forward), a);
  const auto ref_b =
      reference_run(PlanDesc::out_of_core(n, 4, Direction::Forward), b);

  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  auto plan = std::dynamic_pointer_cast<BatchShardedFft3DPlan>(
      PlanRegistry::of(group).get_or_create(
          PlanDesc::batch_sharded3d(n, 4, Direction::Forward)));
  ASSERT_NE(plan, nullptr);
  ExecPolicy policy;
  policy.verify = VerifyPolicy::Parseval;
  policy.verify_attempts = 3;
  plan->set_exec_policy(policy);
  group.faults(0).arm(FaultKind::KernelCorrupt, 2, 1);
  std::vector<cxf> da = a;
  std::vector<cxf> db = b;
  const std::span<cxf> volumes[] = {std::span<cxf>(da), std::span<cxf>(db)};
  plan->execute_batch(volumes);

  EXPECT_TRUE(bit_identical(da, ref_a));
  EXPECT_TRUE(bit_identical(db, ref_b));
  // The dealt volume verified inside member 0's own plan.
  EXPECT_GE(group.device(0).health().verify_failures, 1u);
}

// ---- Off costs nothing ----

TEST(Verify, OffPolicyIsBitAndTimelineIdentical) {
  const PlanDesc desc = PlanDesc::out_of_core(32, 4, Direction::Forward);
  const auto input = input_for(desc, 7401);

  Device bare(sim::geforce_8800_gts());
  auto bare_plan = PlanRegistry::of(bare).get_or_create(desc);
  std::vector<cxf> ref = input;
  bare_plan->execute_host(std::span<cxf>(ref));

  // Explicit Off policy with an injector attached (but disarmed): the
  // verification layer and the fault hooks must both stay out of the
  // data path and off the simulated clock.
  Device dev(sim::geforce_8800_gts());
  auto plan = PlanRegistry::of(dev).get_or_create(desc);
  ExecPolicy policy;
  policy.verify = VerifyPolicy::Off;
  plan->set_exec_policy(policy);
  dev.faults().arm(FaultKind::KernelCorrupt, 1, 1);
  dev.faults().disarm_all();
  std::vector<cxf> data = input;
  plan->execute_host(std::span<cxf>(data));

  EXPECT_TRUE(bit_identical(data, ref));
  EXPECT_DOUBLE_EQ(dev.elapsed_ms(), bare.elapsed_ms());
}

// ---- Full verification ----

TEST(Verify, FullVerifyRepairsKernelCorrupt) {
  const PlanDesc desc = PlanDesc::out_of_core(32, 4, Direction::Forward);
  const auto input = input_for(desc, 7501);
  const auto ref = reference_run(desc, input);

  Device dev(sim::geforce_8800_gts());
  auto plan = PlanRegistry::of(dev).get_or_create(desc);
  ExecPolicy policy;
  policy.verify = VerifyPolicy::Full;
  policy.verify_attempts = 3;
  plan->set_exec_policy(policy);
  dev.faults().arm(FaultKind::KernelCorrupt, 1, 1);
  std::vector<cxf> data = input;
  plan->execute_host(std::span<cxf>(data));

  EXPECT_TRUE(bit_identical(data, ref));
  EXPECT_GE(dev.health().verify_failures, 1u);
}

// ---- Exhaustion surfaces typed ----

TEST(Verify, ExhaustedRecomputesThrowResultVerificationError) {
  const PlanDesc desc = PlanDesc::out_of_core(32, 4, Direction::Forward);
  const auto input = input_for(desc, 7601);

  Device dev(sim::geforce_8800_gts());
  auto plan = PlanRegistry::of(dev).get_or_create(desc);
  ExecPolicy policy;
  policy.verify = VerifyPolicy::Parseval;
  policy.verify_attempts = 2;
  plan->set_exec_policy(policy);
  // Every launch corrupts, so the recompute window never closes.
  dev.faults().arm(FaultKind::KernelCorrupt, 1, std::uint64_t{1} << 40);
  std::vector<cxf> data = input;
  try {
    plan->execute_host(std::span<cxf>(data));
    FAIL() << "expected ResultVerificationError";
  } catch (const sim::ResultVerificationError& e) {
    EXPECT_NE(std::string(e.check()), "");
    // The plan layer stamped its label onto the in-flight error.
    EXPECT_NE(std::string(e.what()).find("plan["), std::string::npos);
  }
  EXPECT_GE(dev.health().verify_failures, 1u);

  // After disarming the same plan object recovers to clean service.
  dev.faults().disarm_all();
  const auto ref = reference_run(desc, input);
  data = input;
  plan->execute_host(std::span<cxf>(data));
  EXPECT_TRUE(bit_identical(data, ref));
}

// ---- Policy validation ----

TEST(Verify, InvalidPolicyErrorsNameTheOffendingField) {
  ExecPolicy bad_staging;
  bad_staging.staging.max_attempts = 0;
  try {
    validate_policy(bad_staging);
    FAIL() << "expected InvalidPolicyError";
  } catch (const sim::InvalidPolicyError& e) {
    EXPECT_EQ(std::string(e.field()), "StagePolicy.max_attempts");
  }

  ExecPolicy bad_verify;
  bad_verify.verify_attempts = 0;
  try {
    validate_policy(bad_verify);
    FAIL() << "expected InvalidPolicyError";
  } catch (const sim::InvalidPolicyError& e) {
    EXPECT_EQ(std::string(e.field()), "ExecPolicy.verify_attempts");
  }

  // The plan setter validates before accepting, leaving the previous
  // (valid) policy in place.
  Device dev(sim::geforce_8800_gts());
  auto plan = PlanRegistry::of(dev).get_or_create(
      PlanDesc::bandwidth3d(cube(16), Direction::Forward, Precision::F32));
  EXPECT_THROW(plan->set_exec_policy(bad_verify), sim::InvalidPolicyError);
  EXPECT_EQ(plan->exec_policy().verify_attempts, 2);
}

}  // namespace
}  // namespace repro::gpufft
