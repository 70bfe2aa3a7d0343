// Async plan execution: default-stream regression locks (bit-for-bit
// against the synchronous path), execute_async equivalence, and the
// overlapped host-batch pipeline's speedup on a dual-copy-engine card.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "fft/dft_ref.h"
#include "fft/plan.h"
#include "gpufft/outofcore.h"
#include "gpufft/plan.h"
#include "sim/stream.h"

namespace repro::gpufft {
namespace {

struct RunResult {
  std::vector<cxf> out;
  std::vector<StepTiming> steps;
  double elapsed_ms{};
};

RunResult run_sync(const std::vector<cxf>& input, Shape3 shape,
                   const sim::GpuSpec& spec) {
  Device dev(spec);
  auto data = dev.alloc<cxf>(shape.volume());
  dev.h2d(data, std::span<const cxf>(input));
  BandwidthFft3D plan(dev, shape, Direction::Forward);
  RunResult r;
  r.steps = plan.execute(data);
  r.out.resize(shape.volume());
  dev.d2h(std::span<cxf>(r.out), data);
  r.elapsed_ms = dev.elapsed_ms();
  return r;
}

RunResult run_async(const std::vector<cxf>& input, Shape3 shape,
                    const sim::GpuSpec& spec) {
  Device dev(spec);
  auto data = dev.alloc<cxf>(shape.volume());
  BandwidthFft3D plan(dev, shape, Direction::Forward);
  RunResult r;
  {
    sim::Stream stream(dev);
    dev.h2d_async(data, std::span<const cxf>(input), stream);
    r.steps = plan.execute_async(data, stream);
    r.out.resize(shape.volume());
    dev.d2h_async(std::span<cxf>(r.out), data, stream);
  }
  r.elapsed_ms = dev.elapsed_ms();
  return r;
}

bool bit_identical(const std::vector<cxf>& a, const std::vector<cxf>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].re != b[i].re || a[i].im != b[i].im) return false;
  }
  return true;
}

TEST(AsyncExec, DefaultStreamRunMatchesOracle16) {
  // Regression lock: with streams in the codebase, the plain synchronous
  // path still computes the right transform.
  const Shape3 shape = cube(16);
  const auto input = random_complex<float>(shape.volume(), 21);
  const auto r = run_sync(input, shape, sim::geforce_8800_gts());
  const auto ref = fft::dft_3d<float>(input, shape, Direction::Forward);
  EXPECT_LT(rel_l2_error<float>(r.out, ref),
            fft_error_bound<float>(shape.volume()));
}

TEST(AsyncExec, DefaultStreamRunMatchesHostPlan64) {
  const Shape3 shape = cube(64);
  const auto input = random_complex<float>(shape.volume(), 22);
  const auto r = run_sync(input, shape, sim::geforce_8800_gts());
  std::vector<cxf> ref = input;
  fft::Plan3D<float> host(shape, Direction::Forward);
  host.execute(ref);
  EXPECT_LT(rel_l2_error<float>(r.out, ref),
            fft_error_bound<float>(shape.volume()));
}

TEST(AsyncExec, AsyncMatchesSyncBitForBitWithSameStepTimes) {
  // execute_async must be a pure scheduling change: identical output
  // bits, identical per-step durations, identical makespan for a single
  // stream (nothing to overlap with).
  const Shape3 shape = cube(64);
  const auto input = random_complex<float>(shape.volume(), 23);
  const auto sync = run_sync(input, shape, sim::geforce_8800_gt());
  const auto async = run_async(input, shape, sim::geforce_8800_gt());

  EXPECT_TRUE(bit_identical(sync.out, async.out));
  ASSERT_EQ(sync.steps.size(), async.steps.size());
  for (std::size_t i = 0; i < sync.steps.size(); ++i) {
    EXPECT_EQ(sync.steps[i].name, async.steps[i].name);
    EXPECT_DOUBLE_EQ(sync.steps[i].ms, async.steps[i].ms);
  }
  EXPECT_NEAR(sync.elapsed_ms, async.elapsed_ms, 1e-9);
}

TEST(AsyncExec, BatchHostOverlapsOnDualCopyEngineCard) {
  // Acceptance: 8 x 128^3 volumes double-buffered through two streams on
  // a 2-DMA-engine card beat the synchronous schedule by >= 1.3x.
  const Shape3 shape = cube(128);
  const std::size_t jobs = 8;
  std::vector<std::vector<cxf>> volumes;
  std::vector<std::vector<cxf>> batch_volumes;
  for (std::size_t i = 0; i < jobs; ++i) {
    volumes.push_back(random_complex<float>(shape.volume(), 100 + i));
    batch_volumes.push_back(volumes.back());
  }

  // Synchronous reference: each volume staged and executed serially.
  Device dev_sync(sim::geforce_gtx_280());
  BandwidthFft3D plan_sync(dev_sync, shape, Direction::Forward);
  const double t0 = dev_sync.elapsed_ms();
  for (auto& v : volumes) plan_sync.execute_host(std::span<cxf>(v));
  const double sync_ms = dev_sync.elapsed_ms() - t0;

  // Overlapped batch.
  Device dev_async(sim::geforce_gtx_280());
  BandwidthFft3D plan_async(dev_async, shape, Direction::Forward);
  std::vector<std::span<cxf>> spans;
  for (auto& v : batch_volumes) spans.emplace_back(v);
  plan_async.execute_batch_host(
      std::span<const std::span<cxf>>(spans.data(), spans.size()));
  const double overlap_ms = plan_async.last_total_ms();

  EXPECT_GT(overlap_ms, 0.0);
  EXPECT_GE(sync_ms / overlap_ms, 1.3);
  // The pipeline reorders only the timeline, never the math.
  for (std::size_t i = 0; i < jobs; ++i) {
    EXPECT_TRUE(bit_identical(volumes[i], batch_volumes[i]));
  }
}

TEST(AsyncExec, BatchHostSingleVolumeDegeneratesToExecuteHost) {
  const Shape3 shape = cube(32);
  auto a = random_complex<float>(shape.volume(), 31);
  auto b = a;

  Device dev(sim::geforce_8800_gt());
  BandwidthFft3D plan(dev, shape, Direction::Forward);
  plan.execute_host(std::span<cxf>(a));

  std::span<cxf> span_b(b);
  plan.execute_batch_host(std::span<const std::span<cxf>>(&span_b, 1));
  EXPECT_TRUE(bit_identical(a, b));
}

TEST(AsyncExec, HostEntryPointsRejectAWrongSizeVolume) {
  // A half-size span after a full run would otherwise transform the
  // stale rest of the pooled staging lease.
  const Shape3 shape = cube(16);
  Device dev(sim::geforce_8800_gt());
  BandwidthFft3D plan(dev, shape, Direction::Forward);
  auto full = random_complex<float>(shape.volume(), 51);
  plan.execute_host(std::span<cxf>(full));

  auto half = random_complex<float>(shape.volume() / 2, 52);
  const auto expect_rejected = [](auto&& run) {
    try {
      run();
      FAIL() << "a 2048-element span must not run a 4096-element plan";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("4096"), std::string::npos) << msg;
      EXPECT_NE(msg.find("2048"), std::string::npos) << msg;
    }
  };
  expect_rejected([&] { plan.execute_host(std::span<cxf>(half)); });
  const std::span<cxf> one[] = {std::span<cxf>(half)};
  expect_rejected([&] { plan.execute_batch_host(one); });
}

TEST(AsyncExec, OutOfCoreStreamingShortensTheMakespan) {
  const std::size_t n = 64;
  auto data = random_complex<float>(n * n * n, 41);
  std::vector<cxf> ref = data;
  fft::Plan3D<float> host(cube(n), Direction::Forward);
  host.execute(ref);

  Device dev(sim::geforce_gtx_280());
  OutOfCoreFft3D plan(dev, n, 4, Direction::Forward);
  const auto t = plan.execute(std::span<cxf>(data));
  // Still correct under the streamed schedule...
  EXPECT_LT(rel_l2_error<float>(data, ref),
            fft_error_bound<float>(n * n * n));
  // ...and the overlap is real: the wall-clock beats the serial sum of
  // the Table 12 buckets, but can't beat the transfer totals both ways.
  EXPECT_GT(t.makespan_ms, 0.0);
  EXPECT_LT(t.makespan_ms, 0.97 * t.total_ms());
  EXPECT_GE(t.makespan_ms,
            std::max(t.h2d1_ms + t.h2d2_ms, t.d2h1_ms + t.d2h2_ms) - 1e-9);
  EXPECT_EQ(plan.last_total_ms(), t.makespan_ms);
}

}  // namespace
}  // namespace repro::gpufft
