#include "gpufft/offload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <vector>

#include "common/rng.h"

namespace repro::gpufft {
namespace {

/// The exact steady-state per-job period of the double-buffered pipeline.
/// On one copy engine the engine moves every job up and down, so it binds
/// unless the transform is slower. On two engines each stage has its own
/// engine, and the half-chain term is the two-slot limit: each slot's
/// stream runs its job's upload, transform and download back to back, so
/// two jobs take at least one whole chain.
double period_oracle(double h2d, double fft, double d2h, int engines) {
  return engines == 1 ? std::max(h2d + d2h, fft)
                      : std::max({h2d, fft, d2h, (h2d + fft + d2h) / 2.0});
}

TEST(Offload, BatchHostPipelineIsPinned) {
  // Golden timeline of one small double-buffered host batch (3 x 32^3 on
  // a two-copy-engine GTX 280): the overlapped makespan and every step's
  // summed duration and bandwidth, exact. The simulated clock is
  // deterministic, so any change to the pipeline's issue order shows here.
  const Shape3 shape = cube(32);
  Device dev(sim::geforce_gtx_280());
  BandwidthFft3D plan(dev, shape, Direction::Forward);
  std::vector<std::vector<cxf>> volumes;
  std::vector<std::span<cxf>> spans;
  for (std::uint64_t i = 0; i < 3; ++i) {
    volumes.push_back(random_complex<float>(shape.volume(), 40 + i));
  }
  for (auto& v : volumes) spans.emplace_back(v);
  const auto steps = plan.execute_batch_host(
      std::span<const std::span<cxf>>(spans.data(), spans.size()));
  EXPECT_EQ(plan.last_total_ms(), 0.45164157532339055);
  const StepTiming want[] = {
      {"step1 (Z rank1)", 0.043026521576362442, 36.555685711393586},
      {"step2 (Z rank2)", 0.043317217541266481, 36.310365468456027},
      {"step3 (Y rank1)", 0.043026521576362442, 36.555685711393586},
      {"step4 (Y rank2)", 0.043317217541266481, 36.310365468456027},
      {"step5 (X fine)", 0.087515062316109254, 17.972494772599578},
  };
  ASSERT_EQ(steps.size(), std::size(want));
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].name, want[i].name);
    EXPECT_EQ(steps[i].ms, want[i].ms) << want[i].name;
    EXPECT_EQ(steps[i].gbs, want[i].gbs) << want[i].name;
  }
}

TEST(Offload, ReplayIsThePlansOwnPipeline) {
  // The model is the plan: measure_offload's replay for a card's
  // copy-engine count lands on the makespan execute_batch_host resolves
  // for the same jobs, on one engine (8800 GTS) and on two (GTX 280).
  const Shape3 shape = cube(64);
  const std::size_t jobs = 8;
  for (const sim::GpuSpec& spec :
       {sim::geforce_8800_gts(), sim::geforce_gtx_280()}) {
    Device dev(spec);
    BandwidthFft3D plan(dev, shape, Direction::Forward);
    std::vector<std::vector<cxf>> volumes;
    std::vector<std::span<cxf>> spans;
    for (std::uint64_t i = 0; i < jobs; ++i) {
      volumes.push_back(random_complex<float>(shape.volume(), 50 + i));
    }
    for (auto& v : volumes) spans.emplace_back(v);
    plan.execute_batch_host(
        std::span<const std::span<cxf>>(spans.data(), spans.size()));
    Device probe(spec);
    const auto t = measure_offload(probe, shape, jobs);
    const double model =
        spec.dma_engines == 1 ? t.sched_1dma_ms : t.sched_2dma_ms;
    EXPECT_NEAR(model, plan.last_total_ms(), 0.005 * plan.last_total_ms())
        << spec.name;
  }
}

TEST(Offload, ZeroJobsIsAllZeroTimings) {
  // No jobs: nothing to fill or drain, every total is zero.
  EXPECT_EQ(schedule_offload(10.0, 20.0, 10.0, 0, 1), 0.0);
  EXPECT_EQ(schedule_offload(10.0, 20.0, 10.0, 0, 2), 0.0);
  Device dev(sim::geforce_8800_gts());
  const auto t = measure_offload(dev, cube(16), 0);
  EXPECT_GT(t.h2d_ms + t.fft_ms + t.d2h_ms, 0.0);
  EXPECT_EQ(t.sync_ms, 0.0);
  EXPECT_EQ(t.sched_1dma_ms, 0.0);
  EXPECT_EQ(t.sched_2dma_ms, 0.0);
  EXPECT_EQ(t.sched_rate_1dma_ms, 0.0);
  EXPECT_EQ(t.sched_rate_2dma_ms, 0.0);
}

TEST(Offload, SingleJobHasNoOverlapWin) {
  // One job has no overlap partner: strictly sequential on any card.
  EXPECT_NEAR(schedule_offload(10.0, 20.0, 10.0, 1, 1), 40.0, 1e-9);
  EXPECT_NEAR(schedule_offload(10.0, 20.0, 10.0, 1, 2), 40.0, 1e-9);
}

TEST(Offload, ComputeBoundPipelineHidesTransfers) {
  // fft dominates: after the first upload the transforms run back to
  // back, and only the last download is exposed: 5 + 10 * 30 + 5 = 310
  // against the serial 400, on either engine topology.
  for (int engines : {1, 2}) {
    const double t = schedule_offload(5.0, 30.0, 5.0, 10, engines);
    EXPECT_NEAR(t, 310.0, 1e-9) << engines;
    EXPECT_GT(400.0 / t, 1.25) << engines;
  }
}

TEST(Offload, TransferBoundPipelineIsCopyLimited) {
  // Copies dominate (the paper's Table 10 regime). One engine: it carries
  // all 8 * (25 + 25) ms of copies and idles only while job 0's and job
  // 7's transforms outrun an upload, 5 ms each.
  EXPECT_NEAR(schedule_offload(25.0, 30.0, 25.0, 8, 1), 400.0 + 2 * 5.0,
              1e-9);
  // Two engines: the two-slot limit binds. Each slot's stream chains
  // upload, transform and download, 80 ms a job, four jobs a slot; slot 1
  // starts 30 ms late (its upload queues behind job 0's, its transform
  // waits 5 ms for job 0's).
  EXPECT_NEAR(schedule_offload(25.0, 30.0, 25.0, 8, 2), 30.0 + 4 * 80.0,
              1e-9);
}

TEST(Offload, OverlapNeverSlowerThanSync) {
  for (double h : {1.0, 10.0, 100.0}) {
    for (double f : {1.0, 10.0, 100.0}) {
      for (double d : {1.0, 10.0, 100.0}) {
        for (std::size_t n : {1u, 2u, 7u, 64u}) {
          const double sync = static_cast<double>(n) * (h + f + d);
          const double one = schedule_offload(h, f, d, n, 1);
          const double two = schedule_offload(h, f, d, n, 2);
          EXPECT_LE(one, sync + 1e-9);
          EXPECT_LE(two, one + 1e-9);
          EXPECT_GE(two, f * static_cast<double>(n) - 1e-9);  // compute floor
        }
      }
    }
  }
}

TEST(Offload, MeasuredPhasesMatchTable10Regime) {
  Device dev(sim::geforce_8800_gts());
  const auto t = measure_offload(dev, cube(128), 16);
  EXPECT_GT(t.h2d_ms, 0.0);
  EXPECT_GT(t.fft_ms, 0.0);
  EXPECT_GT(t.d2h_ms, 0.0);
  // At 128^3 on PCIe 2.0, transfers and compute are of the same order, so
  // overlap buys a solid factor even on one copy engine.
  EXPECT_GT(t.sync_ms / t.sched_1dma_ms, 1.2);
  EXPECT_LT(t.sync_ms / t.sched_1dma_ms, 3.0);
  EXPECT_LE(t.sched_2dma_ms, t.sched_1dma_ms + 1e-9);
  // The measured periods are the pipeline's exact steady state.
  const double one = period_oracle(t.h2d_ms, t.fft_ms, t.d2h_ms, 1);
  const double two = period_oracle(t.h2d_ms, t.fft_ms, t.d2h_ms, 2);
  EXPECT_NEAR(t.sched_rate_1dma_ms, one, 1e-9 * one);
  EXPECT_NEAR(t.sched_rate_2dma_ms, two, 1e-9 * two);
}

TEST(Offload, SchedulerMatchesAlgebraRateAcrossRegimes) {
  // Sweep compute-, upload-, download- and copy-bound phase mixes, with
  // and without the two-slot limit binding: the replay's steady-state
  // per-job period is exactly the oracle's on either engine topology.
  const double mixes[][3] = {
      {5.0, 30.0, 5.0},    // compute-bound
      {30.0, 5.0, 10.0},   // upload-bound
      {10.0, 5.0, 30.0},   // download-bound
      {20.0, 20.0, 20.0},  // balanced: two-slot limit on two engines
      {25.0, 30.0, 25.0},  // copy-bound on one engine, two-slot on two
      {15.0, 10.0, 15.0},  // copy-bound on one engine, two-slot on two
      {40.0, 1.0, 40.0},   // copy-bound on both
      {1.0, 100.0, 1.0},   // transfers all but free
  };
  const std::size_t n = 16;
  for (const auto& m : mixes) {
    const double sync = static_cast<double>(n) * (m[0] + m[1] + m[2]);
    for (int engines : {1, 2}) {
      const double total = schedule_offload(m[0], m[1], m[2], n, engines);
      const double twice =
          schedule_offload(m[0], m[1], m[2], 2 * n, engines);
      const double rate = (twice - total) / static_cast<double>(n);
      const double bound = period_oracle(m[0], m[1], m[2], engines);
      EXPECT_NEAR(rate, bound, 1e-9 * bound)
          << "engines=" << engines << " mix=(" << m[0] << "," << m[1]
          << "," << m[2] << ")";
      // Makespan sanity: never below the steady-state work, never above
      // the serial schedule.
      EXPECT_GE(total, static_cast<double>(n) * bound - 1e-9);
      EXPECT_LE(total, sync + 1e-9);
    }
  }
}

}  // namespace
}  // namespace repro::gpufft
