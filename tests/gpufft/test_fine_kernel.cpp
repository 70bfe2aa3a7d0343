// Correctness and behaviour of the fine-grained X-axis kernel (step 5).
#include "gpufft/fine_kernel.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "fft/plan.h"

namespace repro::gpufft {
namespace {

struct Run {
  std::vector<cxf> result;
  sim::LaunchResult launch;
};

Run run_fine(std::size_t n, std::size_t count, Direction dir,
             TwiddleSource tw = TwiddleSource::Texture,
             std::uint64_t seed = 1) {
  Device dev(sim::geforce_8800_gtx());
  auto data = dev.alloc<cxf>(n * count);
  auto twd = dev.alloc<cxf>(n);
  const auto roots = make_roots<float>(n, dir);
  dev.h2d(twd, std::span<const cxf>(roots));
  const auto input = random_complex<float>(n * count, seed);
  dev.h2d(data, std::span<const cxf>(input));

  FineKernelParams p;
  p.n = n;
  p.count = count;
  p.dir = dir;
  p.twiddles = tw;
  p.grid_blocks = default_grid_blocks(dev.spec());
  FineFftKernel k(data, data, p, &twd);
  Run r;
  r.launch = dev.launch(k);
  r.result.resize(n * count);
  dev.d2h(std::span<cxf>(r.result), data);
  return r;
}

std::vector<cxf> host_reference(std::span<const cxf> in, std::size_t n,
                                std::size_t count, Direction dir) {
  std::vector<cxf> ref(in.begin(), in.end());
  fft::Plan1D<float> plan(n, dir);
  plan.execute(ref, count);
  return ref;
}

class FineSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FineSizes, MatchesHostPlanForward) {
  const std::size_t n = GetParam();
  const std::size_t count = 32;
  const auto input = random_complex<float>(n * count, n);
  Device dev(sim::geforce_8800_gts());
  auto data = dev.alloc<cxf>(n * count);
  auto twd = dev.alloc<cxf>(n);
  const auto roots = make_roots<float>(n, Direction::Forward);
  dev.h2d(twd, std::span<const cxf>(roots));
  dev.h2d(data, std::span<const cxf>(input));
  FineKernelParams p;
  p.n = n;
  p.count = count;
  p.grid_blocks = 8;
  p.threads_per_block =
      static_cast<unsigned>(std::max<std::size_t>(n / 4, 64));
  FineFftKernel k(data, data, p, &twd);
  dev.launch(k);
  std::vector<cxf> out(n * count);
  dev.d2h(std::span<cxf>(out), data);
  const auto ref = host_reference(input, n, count, Direction::Forward);
  EXPECT_LT(rel_l2_error<float>(out, ref), fft_error_bound<float>(n));
}

INSTANTIATE_TEST_SUITE_P(Pow2, FineSizes,
                         ::testing::Values(16, 32, 64, 128, 256, 512));

TEST(FineKernel, InverseMatchesHost) {
  const auto r = run_fine(256, 64, Direction::Inverse);
  Device dummy(sim::geforce_8800_gtx());
  const auto input = random_complex<float>(256 * 64, 1);
  const auto ref = host_reference(input, 256, 64, Direction::Inverse);
  EXPECT_LT(rel_l2_error<float>(r.result, ref),
            fft_error_bound<float>(256));
}

TEST(FineKernel, AllTwiddleSourcesAgree) {
  const std::size_t n = 256;
  const std::size_t count = 16;
  std::vector<std::vector<cxf>> results;
  for (TwiddleSource tw :
       {TwiddleSource::Registers, TwiddleSource::Constant,
        TwiddleSource::Texture, TwiddleSource::Recompute}) {
    results.push_back(run_fine(n, count, Direction::Forward, tw, 7).result);
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LT(rel_l2_error<float>(results[i], results[0]), 1e-5)
        << "variant " << i;
  }
}

TEST(FineKernel, GlobalAccessesFullyCoalesced) {
  const auto r = run_fine(256, 4096, Direction::Forward);
  EXPECT_GT(r.launch.coalesced_fraction, 0.99);
}

TEST(FineKernel, PaddingAvoidsBankConflicts) {
  // With the paper's padded exchange the kernel must be close to the
  // memory roofline, not serialized on shared memory.
  const auto r = run_fine(256, 8192, Direction::Forward);
  EXPECT_TRUE(r.launch.compute_ms < 2.5 * r.launch.mem_ms);
}

TEST(FineKernel, Table8ScaleGflops) {
  // 65536 x 256-point on the GTX: paper reports 122 GFLOPS / 5.52 ms.
  // Check the simulated kernel lands in the right regime (3-9 ms).
  Device dev(sim::geforce_8800_gtx());
  auto data = dev.alloc<cxf>(65536ull * 256);
  auto twd = dev.alloc<cxf>(256);
  const auto roots = make_roots<float>(256, Direction::Forward);
  dev.h2d(twd, std::span<const cxf>(roots));
  FineKernelParams p;
  p.n = 256;
  p.count = 65536;
  p.grid_blocks = default_grid_blocks(dev.spec());
  FineFftKernel k(data, data, p, &twd);
  const auto r = dev.launch(k);
  EXPECT_GT(r.total_ms, 3.0);
  EXPECT_LT(r.total_ms, 9.0);
}

TEST(FineKernel, RejectsBadGeometry) {
  Device dev(sim::geforce_8800_gtx());
  auto data = dev.alloc<cxf>(1024);
  FineKernelParams p;
  p.n = 24;  // not a power of two
  p.count = 1;
  p.twiddles = TwiddleSource::Registers;
  EXPECT_THROW(FineFftKernel(data, data, p), Error);
}

TEST(FineKernel, ShmemFootprintMatchesPaperScale) {
  // n floats + padding: ~1.06 KB for a 256-point transform, the one
  // transform group of a 64-thread block.
  FineKernelParams p;
  p.n = 256;
  p.count = 1;
  p.threads_per_block = 64;
  const std::size_t shmem = fine_config(p, /*fp64=*/false).shmem_per_block;
  EXPECT_EQ(shmem, (255 + 255 / 16 + 1) * 4u);
  EXPECT_LT(shmem, 1100u);
}

}  // namespace
}  // namespace repro::gpufft
