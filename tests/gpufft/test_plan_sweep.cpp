// Parameterized sweeps of the five-step plan over shapes, directions and
// twiddle configurations — the broad-coverage net behind the targeted
// tests in test_plan3d_gpu.cpp.
#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "fft/plan.h"
#include "gpufft/outofcore.h"
#include "gpufft/plan.h"

namespace repro::gpufft {
namespace {

using ShapeParam = std::tuple<std::size_t, std::size_t, std::size_t>;

class PlanShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(PlanShapes, ForwardMatchesHost) {
  const auto [nx, ny, nz] = GetParam();
  const Shape3 shape{nx, ny, nz};
  const auto input =
      random_complex<float>(shape.volume(), nx * 7 + ny * 3 + nz);
  std::vector<cxf> ref = input;
  fft::Plan3D<float> host(shape, fft::Direction::Forward);
  host.execute(ref);

  Device dev(sim::geforce_8800_gt());
  auto data = dev.alloc<cxf>(shape.volume());
  dev.h2d(data, std::span<const cxf>(input));
  BandwidthFft3D plan(dev, shape, Direction::Forward);
  plan.execute(data);
  std::vector<cxf> out(shape.volume());
  dev.d2h(std::span<cxf>(out), data);
  EXPECT_LT(rel_l2_error<float>(out, ref),
            fft_error_bound<float>(shape.volume()));
}

INSTANTIATE_TEST_SUITE_P(
    MixedShapes, PlanShapes,
    ::testing::Values(ShapeParam{16, 16, 16}, ShapeParam{16, 32, 64},
                      ShapeParam{64, 16, 32}, ShapeParam{32, 64, 16},
                      ShapeParam{128, 16, 16}, ShapeParam{16, 128, 32},
                      ShapeParam{256, 16, 16}, ShapeParam{32, 32, 128}));

class PlanTwiddleConfigs
    : public ::testing::TestWithParam<std::pair<TwiddleSource, TwiddleSource>> {
};

TEST_P(PlanTwiddleConfigs, AllConfigurationsAgree) {
  const auto [coarse, fine] = GetParam();
  const Shape3 shape = cube(32);
  const auto input = random_complex<float>(shape.volume(), 11);

  auto run = [&](TuneConfig opt) {
    Device dev(sim::geforce_8800_gts());
    auto data = dev.alloc<cxf>(shape.volume());
    dev.h2d(data, std::span<const cxf>(input));
    BandwidthFft3D plan(dev, shape, Direction::Forward, opt);
    plan.execute(data);
    std::vector<cxf> out(shape.volume());
    dev.d2h(std::span<cxf>(out), data);
    return out;
  };

  const auto reference = run(TuneConfig{});
  TuneConfig opt;
  opt.coarse_twiddles = coarse;
  opt.fine_twiddles = fine;
  const auto variant = run(opt);
  EXPECT_LT(rel_l2_error<float>(variant, reference), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    TwiddlePairs, PlanTwiddleConfigs,
    ::testing::Values(
        std::pair{TwiddleSource::Constant, TwiddleSource::Registers},
        std::pair{TwiddleSource::Texture, TwiddleSource::Constant},
        std::pair{TwiddleSource::Recompute, TwiddleSource::Recompute}));

class OutOfCoreSplits : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OutOfCoreSplits, MatchesHostForEverySplit) {
  const std::size_t splits = GetParam();
  const std::size_t n = 64;
  auto data = random_complex<float>(n * n * n, splits);
  std::vector<cxf> ref = data;
  fft::Plan3D<float> host(cube(n), fft::Direction::Forward);
  host.execute(ref);

  Device dev(sim::geforce_8800_gts());
  OutOfCoreFft3D plan(dev, n, splits, Direction::Forward);
  plan.execute(std::span<cxf>(data));
  EXPECT_LT(rel_l2_error<float>(data, ref),
            fft_error_bound<float>(n * n * n));
}

INSTANTIATE_TEST_SUITE_P(Splits, OutOfCoreSplits,
                         ::testing::Values(2, 4, 8, 16));

TEST(PlanSweep, GridBlockOverrideStaysCorrect) {
  const Shape3 shape = cube(32);
  const auto input = random_complex<float>(shape.volume(), 21);
  std::vector<cxf> ref = input;
  fft::Plan3D<float> host(shape, fft::Direction::Forward);
  host.execute(ref);
  for (unsigned grid : {1u, 7u, 48u, 96u}) {
    Device dev(sim::geforce_8800_gtx());
    auto data = dev.alloc<cxf>(shape.volume());
    dev.h2d(data, std::span<const cxf>(input));
    TuneConfig opt;
    opt.grid_blocks = grid;
    BandwidthFft3D plan(dev, shape, Direction::Forward, opt);
    plan.execute(data);
    std::vector<cxf> out(shape.volume());
    dev.d2h(std::span<cxf>(out), data);
    EXPECT_LT(rel_l2_error<float>(out, ref),
              fft_error_bound<float>(shape.volume()))
        << "grid=" << grid;
  }
}

TEST(PlanSweep, FewBlocksAreSlower) {
  // Occupancy sanity: a 4-block launch cannot keep 14 SMs busy.
  const Shape3 shape = cube(64);
  auto run = [&](unsigned grid) {
    Device dev(sim::geforce_8800_gt());
    auto data = dev.alloc<cxf>(shape.volume());
    TuneConfig opt;
    opt.grid_blocks = grid;
    BandwidthFft3D plan(dev, shape, Direction::Forward, opt);
    plan.execute(data);
    return plan.last_total_ms();
  };
  EXPECT_GT(run(4), 2.0 * run(42));
}

}  // namespace
}  // namespace repro::gpufft
