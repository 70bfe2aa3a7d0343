// Arbitrary-size GPU plans: the mixed-radix / Bluestein Mixed3D plan must
// reproduce the host library bit-for-bit for every size class (7-smooth,
// Bluestein axes, pow2), under both row layouts, and the streamed plans
// must accept non-pow2 extents through the same slab machinery.
#include "gpufft/mixed3d.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "fft/plan.h"
#include "gpufft/outofcore.h"
#include "gpufft/plan.h"
#include "gpufft/registry.h"
#include "gpufft/sharded.h"

namespace repro::gpufft {
namespace {

bool bit_identical(const std::vector<cxf>& a, const std::vector<cxf>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].re != b[i].re || a[i].im != b[i].im) return false;
  }
  return true;
}

std::vector<cxf> host_fft3d(const std::vector<cxf>& input, Shape3 shape,
                            Direction dir) {
  std::vector<cxf> ref = input;
  fft::Plan3D<float> plan(shape, dir);
  plan.execute(ref);
  return ref;
}

std::vector<cxf> mixed_fft3d(const std::vector<cxf>& input, Shape3 shape,
                             Direction dir, const TuneConfig& tune = {},
                             std::vector<StepTiming>* steps = nullptr) {
  Device dev(sim::geforce_8800_gts());
  MixedFft3D plan(dev, shape, dir, tune);
  std::vector<cxf> data = input;
  auto s = plan.execute_host(std::span<cxf>(data));
  if (steps != nullptr) *steps = std::move(s);
  return data;
}

/// Every size class one axis can fall into: 7-smooth mixed-radix,
/// Bluestein (prime and 2*prime factors), and pow2 (which must also run
/// through the generic machinery unchanged).
class MixedShapes : public ::testing::TestWithParam<Shape3> {};

TEST_P(MixedShapes, BitIdenticalToHostBothDirections) {
  const Shape3 shape = GetParam();
  const auto input =
      random_complex<float>(shape.volume(), 7 + shape.nx);
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    const auto out = mixed_fft3d(input, shape, dir);
    const auto ref = host_fft3d(input, shape, dir);
    EXPECT_TRUE(bit_identical(out, ref))
        << shape.nx << "x" << shape.ny << "x" << shape.nz << " dir="
        << (dir == Direction::Forward ? "fwd" : "inv")
        << " rel_l2=" << rel_l2_error<float>(out, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MixedShapes,
    ::testing::Values(Shape3{20, 12, 6},    // 7-smooth, all axes distinct
                      Shape3{100, 12, 6},   // 2^2*5^2 rows
                      Shape3{15, 15, 15},   // odd 7-smooth cube
                      Shape3{33, 8, 8},     // Bluestein X (3*11)
                      Shape3{97, 8, 4},     // Bluestein X (prime)
                      Shape3{8, 11, 13},    // Bluestein Y and Z
                      Shape3{32, 16, 8}));  // pow2 through the mixed path

TEST(Mixed3D, PaddedLayoutBitIdenticalToDense) {
  const Shape3 shape{100, 12, 6};
  const auto input = random_complex<float>(shape.volume(), 41);
  TuneConfig padded;
  padded.pitch = PitchMode::Padded;
  const auto dense = mixed_fft3d(input, shape, Direction::Forward);
  const auto pad = mixed_fft3d(input, shape, Direction::Forward, padded);
  EXPECT_TRUE(bit_identical(dense, pad))
      << "padding only moves addresses, never values";
}

TEST(Mixed3D, PaddedBatchHostBitIdenticalToHost) {
  // 12 pads to a 16-element pitch: 960 device elements per 720-element
  // host volume. Each batch starts on a cold staging arena.
  const Shape3 shape{12, 10, 6};
  TuneConfig padded;
  padded.pitch = PitchMode::Padded;
  for (const std::size_t jobs : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(jobs) + " volume(s)");
    Device dev(sim::geforce_8800_gts());
    MixedFft3D plan(dev, shape, Direction::Forward, padded);
    ASSERT_EQ(plan.buffer_elements(), 960u);
    std::vector<std::vector<cxf>> inputs, volumes;
    std::vector<std::span<cxf>> spans;
    for (std::size_t i = 0; i < jobs; ++i) {
      inputs.push_back(random_complex<float>(shape.volume(), 61 + i));
      volumes.push_back(inputs.back());
    }
    for (auto& v : volumes) spans.emplace_back(v);
    plan.execute_batch_host(spans);
    for (std::size_t i = 0; i < jobs; ++i) {
      EXPECT_TRUE(bit_identical(
          volumes[i], host_fft3d(inputs[i], shape, Direction::Forward)))
          << "volume " << i;
    }
  }
}

TEST(Mixed3D, PaddedPitchRoundsRowsUpTo16) {
  Device dev(sim::geforce_8800_gts());
  TuneConfig padded;
  padded.pitch = PitchMode::Padded;
  const Shape3 shape{100, 12, 6};
  MixedFft3D plan(dev, shape, Direction::Forward, padded);
  EXPECT_EQ(plan.row_pitch(), 112u);
  EXPECT_EQ(plan.desc().buffer_elements(), 112u * 12u * 6u);
  MixedFft3D dense(dev, shape, Direction::Forward);
  EXPECT_EQ(dense.row_pitch(), 100u);
  EXPECT_EQ(dense.desc().buffer_elements(), shape.volume());
}

TEST(Mixed3D, StepNamesTellTheEngineApart) {
  std::vector<StepTiming> steps;
  mixed_fft3d(random_complex<float>(20 * 12 * 6, 3), Shape3{20, 12, 6},
              Direction::Forward, {}, &steps);
  ASSERT_EQ(steps.size(), 3u);
  for (const auto& s : steps) {
    EXPECT_NE(s.name.find("mixed-radix lines"), std::string::npos) << s.name;
  }
  mixed_fft3d(random_complex<float>(33 * 8 * 8, 4), Shape3{33, 8, 8},
              Direction::Forward, {}, &steps);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_NE(steps[0].name.find("Bluestein"), std::string::npos)
      << steps[0].name;
  EXPECT_NE(steps[0].name.find("m=128"), std::string::npos)
      << "33 pads to the 128-point convolution (next pow2 >= 2*33-1)";
}

TEST(Mixed3D, DenseRouterPicksTheRightKind) {
  // Non-pow2 shapes route to the mixed plan, pow2 shapes keep the exact
  // five-step description they had before the mixed plan existed.
  EXPECT_EQ(PlanDesc::dense3d(Shape3{100, 12, 6}, Direction::Forward).kind,
            PlanKind::Mixed3D);
  EXPECT_EQ(PlanDesc::dense3d(Shape3{20, 12, 6}, Direction::Inverse).kind,
            PlanKind::Mixed3D);
  const PlanDesc pow2 =
      PlanDesc::dense3d(cube(64), Direction::Forward);
  EXPECT_EQ(pow2.kind, PlanKind::Bandwidth3D);
  EXPECT_EQ(pow2.to_string(),
            PlanDesc::bandwidth3d(cube(64), Direction::Forward).to_string());
}

TEST(Mixed3D, RegistryServesMixedPlans) {
  Device dev(sim::geforce_8800_gts());
  const Shape3 shape{20, 12, 6};
  auto plan = PlanRegistry::of(dev).get_or_create(
      PlanDesc::dense3d(shape, Direction::Forward));
  const auto input = random_complex<float>(shape.volume(), 9);
  std::vector<cxf> data = input;
  plan->execute_host(std::span<cxf>(data));
  EXPECT_TRUE(
      bit_identical(data, host_fft3d(input, shape, Direction::Forward)));
}

TEST(Mixed3D, BothLayoutsStageUnderTheExecPolicy) {
  // With one staging attempt allowed, one transient upload failure must
  // surface from the padded layout exactly as from the dense one, named
  // once by the plan.
  for (const PitchMode pitch : {PitchMode::Dense, PitchMode::Padded}) {
    SCOPED_TRACE(pitch_mode_name(pitch));
    Device dev(sim::geforce_8800_gtx());
    TuneConfig tune;
    tune.pitch = pitch;
    MixedFft3D plan(dev, cube(20), Direction::Forward, tune);
    ExecPolicy policy;
    policy.staging.max_attempts = 1;
    plan.set_exec_policy(policy);
    dev.faults().arm(sim::FaultKind::TransferTransient, 1);
    auto data = random_complex<float>(cube(20).volume(), 43);
    try {
      plan.execute_host(std::span<cxf>(data));
      FAIL() << "expected TransientTransferError";
    } catch (const sim::TransientTransferError& e) {
      const std::string msg = e.what();
      const std::size_t first = msg.find("plan[");
      ASSERT_NE(first, std::string::npos) << msg;
      EXPECT_EQ(msg.find("plan[", first + 1), std::string::npos) << msg;
    }
    EXPECT_EQ(dev.health().transient_retries, 0u);
  }
}

TEST(Mixed3D, FiveStepGuardNamesTheEscapeHatch) {
  Device dev(sim::geforce_8800_gts());
  try {
    BandwidthFft3D plan(dev, Shape3{100, 16, 16}, Direction::Forward);
    FAIL() << "the five-step plan must reject non-pow2 X";
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mixed-radix"), std::string::npos) << msg;
    EXPECT_NE(msg.find("100"), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// Streamed plans over non-pow2 extents
// ---------------------------------------------------------------------------

std::vector<cxf> out_of_core_run(std::size_t n, std::size_t splits,
                                 Direction dir,
                                 const std::vector<cxf>& input) {
  Device dev(sim::geforce_8800_gts());
  OutOfCoreFft3D plan(dev, n, splits, dir);
  std::vector<cxf> data = input;
  plan.execute(std::span<cxf>(data));
  return data;
}

TEST(MixedStreamed, OutOfCoreMatchesHostNonPow2) {
  const std::size_t n = 60;  // 2^2*3*5: slabs run the mixed plan
  const auto input = random_complex<float>(n * n * n, 11);
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    const auto out = out_of_core_run(n, 4, dir, input);
    const auto ref = host_fft3d(input, cube(n), dir);
    EXPECT_LT(rel_l2_error<float>(out, ref),
              fft_error_bound<float>(n * n * n));
  }
}

TEST(MixedStreamed, ShardedBitIdenticalToOutOfCoreNonPow2) {
  const std::size_t n = 96;  // 2^5*3: non-pow2, every phase extent divides
  const std::size_t shards = 4;
  const auto input = random_complex<float>(n * n * n, 23);
  const auto ref = out_of_core_run(n, shards, Direction::Forward, input);
  for (const std::size_t devices : {1u, 2u, 3u, 4u}) {
    sim::DeviceGroup group(devices, sim::geforce_8800_gts());
    ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
    std::vector<cxf> data = input;
    plan.execute(std::span<cxf>(data));
    EXPECT_TRUE(bit_identical(data, ref)) << devices << " devices";
  }
}

TEST(MixedStreamed, ShardedGuardsStayTyped) {
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  try {
    ShardedFft3DPlan plan(group, 100, 5, Direction::Forward);
    FAIL() << "non-pow2 shard counts must be rejected";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("power-of-two"),
              std::string::npos)
        << e.what();
  }
  try {
    ShardedRealFft3DPlan plan(group, 100, 4, Direction::Forward);
    FAIL() << "real sharded plans still need pow2 extents";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("complex"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace repro::gpufft
