// The volume contract every plan shares (fft_plan.h): each entry point
// checks its volumes before any work, and a batch checks all of them
// before its first. A wrong-size volume throws an Error naming the plan,
// the count it takes and the count it got, and a well-sized volume in the
// same batch leaves the call bit-identical to its input.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpufft/batch_sharded.h"
#include "gpufft/outofcore.h"
#include "gpufft/plan.h"
#include "gpufft/real3d.h"
#include "gpufft/sharded.h"

namespace repro::gpufft {
namespace {

/// Elements of every wrong-size volume below.
constexpr std::size_t kShort = 100;
constexpr std::size_t kN = 32;

bool bit_identical(std::span<const cxf> a, std::span<const cxf> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// `run` must throw an Error naming `plan`, the `want` elements it takes
/// and the kShort it got.
template <typename Plan, typename Run>
void expect_rejected(const Plan& plan, std::size_t want, Run&& run) {
  const std::string label = "plan[" + plan.desc().to_string() + "]";
  try {
    run();
    ADD_FAILURE() << label << " ran a " << kShort << "-element volume";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(label), std::string::npos) << msg;
    EXPECT_NE(msg.find(" " + std::to_string(want) + " elements"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("got " + std::to_string(kShort)), std::string::npos)
        << msg;
  }
}

/// A batch of {good, short} host volumes: `run` must throw as above and
/// leave the good volume untouched.
template <typename Plan, typename Run>
void expect_host_batch_rejected(const Plan& plan, Run&& run) {
  const std::size_t want = plan.host_elements();
  auto good = random_complex<float>(want, 5);
  const auto input = good;
  std::vector<cxf> bad(kShort);
  const std::span<cxf> volumes[] = {std::span<cxf>(good),
                                    std::span<cxf>(bad)};
  expect_rejected(plan, want, [&] {
    run(std::span<const std::span<cxf>>(volumes));
  });
  EXPECT_TRUE(bit_identical(good, input));
}

/// The single-volume host entry point of `plan` with a short volume.
template <typename Plan>
void expect_host_rejected(Plan& plan) {
  std::vector<cxf> bad(kShort);
  expect_rejected(plan, plan.host_elements(),
                  [&] { plan.execute_host(std::span<cxf>(bad)); });
}

TEST(VolumeContract, DeviceEntryPointsCheckEveryBufferFirst) {
  Device dev(sim::geforce_8800_gt());
  BandwidthFft3D plan(dev, cube(16), Direction::Forward);
  const std::size_t want = plan.buffer_elements();
  auto bad = dev.alloc<cxf>(kShort);
  expect_rejected(plan, want, [&] { plan.execute(bad); });

  auto good = dev.alloc<cxf>(want);
  const auto input = random_complex<float>(want, 7);
  dev.h2d(good, std::span<const cxf>(input));
  DeviceBuffer<cxf>* const volumes[] = {&good, &bad};
  expect_rejected(plan, want, [&] {
    plan.execute_batch(std::span<DeviceBuffer<cxf>* const>(volumes));
  });
  EXPECT_TRUE(bit_identical(good.span(), input));
}

TEST(VolumeContract, StagedHostEntryPointsCheckEveryVolumeFirst) {
  Device dev(sim::geforce_8800_gt());
  BandwidthFft3D plan(dev, cube(16), Direction::Forward);
  expect_host_rejected(plan);
  expect_host_batch_rejected(plan, [&](auto volumes) {
    plan.execute_batch_host(volumes);
  });
}

TEST(VolumeContract, OutOfCoreEntryPointsCheckEveryVolumeFirst) {
  Device dev(sim::geforce_8800_gts());
  OutOfCoreFft3D plan(dev, kN, 4, Direction::Forward);
  expect_host_rejected(plan);
  std::vector<cxf> bad(kShort);
  expect_rejected(plan, plan.host_elements(),
                  [&] { plan.execute(std::span<cxf>(bad)); });
  expect_host_batch_rejected(plan, [&](auto volumes) {
    plan.execute_batch_host(volumes);
  });
}

TEST(VolumeContract, ShardedEntryPointsCheckEveryVolumeFirst) {
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, kN, 4, Direction::Forward);
  expect_host_rejected(plan);
  std::vector<cxf> bad(kShort);
  expect_rejected(plan, plan.host_elements(),
                  [&] { plan.execute(std::span<cxf>(bad)); });
  for (const BatchMode mode : {BatchMode::Serial, BatchMode::Pipelined}) {
    expect_host_batch_rejected(plan, [&](auto volumes) {
      plan.execute_batch(volumes, mode);
    });
  }
  expect_host_batch_rejected(plan, [&](auto volumes) {
    plan.execute_batch_host(volumes);
  });
}

TEST(VolumeContract, ShardedRealEntryPointsCheckEveryVolumeFirst) {
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedRealFft3DPlan plan(group, kN, 4, Direction::Inverse);
  EXPECT_EQ(plan.host_elements(), half_spectrum_elems(cube(kN)));
  expect_host_rejected(plan);
  expect_host_batch_rejected(plan, [&](auto volumes) {
    plan.execute_batch_host(volumes);
  });
}

TEST(VolumeContract, DealtEntryPointsCheckEveryVolumeFirst) {
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  BatchShardedFft3DPlan plan(group, kN, 4, Direction::Forward);
  expect_host_rejected(plan);
  expect_host_batch_rejected(plan, [&](auto volumes) {
    plan.execute_batch(volumes);
  });
  expect_host_batch_rejected(plan, [&](auto volumes) {
    plan.execute_batch_host(volumes);
  });
}

}  // namespace
}  // namespace repro::gpufft
