// Golden pins of the host reference library's outputs. Every simulated
// GPU path is checked against these plans, so their bits are pinned
// directly: each case runs one plan kind over a seeded input in float and
// double, forward and inverse, and compares an FNV-1a hash over the
// output bytes exactly. The shapes cover pow2, 7-smooth (mixed-radix
// Stockham) and Bluestein axes, batched 1-D rows, a Bluestein length
// whose convolution buffers outgrow its data, length-1 axes, the split
// half-spectrum real plans (including a one-column main block) and
// Scaling::ByN inverses.
//
// On a mismatch the test prints the observed hashes as a C++ initializer,
// so a deliberate re-baseline is a copy of that line.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fft/plan.h"
#include "fft/plan2d.h"
#include "fft/real.h"

namespace repro::fft {
namespace {

/// Hashes in the order {float forward, float inverse, double forward,
/// double inverse}; the real case's inverse is the c2r of its r2c output.
using Hashes = std::array<std::uint64_t, 4>;

/// FNV-1a over the bytes of `out`.
template <typename V>
std::uint64_t output_hash(const std::vector<V>& out) {
  const auto* b = reinterpret_cast<const unsigned char*>(out.data());
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < out.size() * sizeof(V); ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string to_cpp(const Hashes& h) {
  std::string s = "{";
  for (std::size_t i = 0; i < h.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%lluull", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(h[i]));
    s += buf;
  }
  return s + "}";
}

void expect_hashes(const Hashes& got, const Hashes& want) {
  SCOPED_TRACE("observed hashes: " + to_cpp(got));
  static constexpr const char* kVariant[] = {"float forward", "float inverse",
                                             "double forward",
                                             "double inverse"};
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << kVariant[i];
  }
}

/// Run `transform(data, dir)` over one seeded input per variant and hash
/// the result.
template <typename Transform>
Hashes complex_hashes(std::size_t elems, std::uint64_t seed,
                      Transform&& transform) {
  Hashes h{};
  std::size_t i = 0;
  auto run = [&]<typename T>(T, Direction dir) {
    auto data = random_complex<T>(elems, seed + i);
    transform(std::span<cx<T>>(data), dir);
    h[i++] = output_hash(data);
  };
  run(float{}, Direction::Forward);
  run(float{}, Direction::Inverse);
  run(double{}, Direction::Forward);
  run(double{}, Direction::Inverse);
  return h;
}

Hashes plan3d_hashes(Shape3 shape, std::uint64_t seed) {
  return complex_hashes(
      shape.volume(), seed,
      [shape]<typename T>(std::span<cx<T>> data, Direction d) {
        Plan3D<T>(shape, d).execute(data);
      });
}

// ---- Plan1D ----

TEST(HostPins, Plan1DBatchedSmooth) {
  constexpr std::size_t kN = 60;
  constexpr std::size_t kBatch = 5;
  expect_hashes(complex_hashes(kN * kBatch, 11,
                               []<typename T>(std::span<cx<T>> data,
                                              Direction d) {
                                 Plan1D<T>(kN, d).execute(data, kBatch);
                               }),
                {8837971222531871464ull, 7541780584021068045ull, 4972530304518862019ull, 4933980540592197546ull});
}

TEST(HostPins, Plan1DBluesteinBatched) {
  // m = 256 for n = 97: the convolution's buffers (2m) outgrow the data.
  constexpr std::size_t kN = 97;
  constexpr std::size_t kBatch = 2;
  expect_hashes(complex_hashes(kN * kBatch, 21,
                               []<typename T>(std::span<cx<T>> data,
                                              Direction d) {
                                 Plan1D<T>(kN, d).execute(data, kBatch);
                               }),
                {2086948238392794454ull, 10871193675521891659ull, 17149527579240953425ull, 4659607321216662676ull});
}

// ---- Plan2D ----

TEST(HostPins, Plan2DSmoothByBluestein) {
  static constexpr Shape2 kShape{12, 22};  // 22 = 2*11 takes Bluestein
  expect_hashes(complex_hashes(kShape.area(), 31,
                               []<typename T>(std::span<cx<T>> data,
                                              Direction d) {
                                 Plan2D<T>(kShape, d).execute(data);
                               }),
                {15779536031283780580ull, 6913441341439234736ull, 1395321952868422907ull, 7382951527547193371ull});
}

Hashes plan2d_hashes(Shape2 shape, std::uint64_t seed,
                     Scaling scaling = Scaling::None) {
  return complex_hashes(
      shape.area(), seed,
      [shape, scaling]<typename T>(std::span<cx<T>> data, Direction d) {
        Plan2D<T>(shape, d, scaling).execute(data);
      });
}

TEST(HostPins, Plan2DLengthOneX) {
  // Every row is one point; the Bluestein Y is the whole transform.
  expect_hashes(plan2d_hashes(Shape2{1, 13}, 32),
                {3179644392264175326ull, 3206659284611066610ull, 8115033778256820556ull, 10354881506566652710ull});
}

TEST(HostPins, Plan2DBluesteinX) {
  expect_hashes(plan2d_hashes(Shape2{97, 3}, 33),
                {16251550514222378494ull, 2854109938168683304ull, 10174134646886540248ull, 12643220814606521878ull});
}

TEST(HostPins, Plan2DScaledByN) {
  expect_hashes(plan2d_hashes(Shape2{12, 11}, 34, Scaling::ByN),
                {2102985513043754415ull, 7373834711022721920ull, 17362787058944089092ull, 11564151782481378206ull});
}

// ---- Plan3D ----

TEST(HostPins, Plan3DPow2) {
  expect_hashes(plan3d_hashes(Shape3{32, 16, 8}, 41),
                {5132904945593048851ull, 16903652028001506853ull, 9757935068814400957ull, 7439443318070711443ull});
}

TEST(HostPins, Plan3DSmooth) {
  expect_hashes(plan3d_hashes(Shape3{20, 12, 10}, 51),
                {8391926333311482320ull, 2378334064425799283ull, 17825661038032715906ull, 17409864835224007028ull});
}

TEST(HostPins, Plan3DOneBluesteinAxis) {
  expect_hashes(plan3d_hashes(Shape3{20, 12, 11}, 61),
                {16917193901489975943ull, 18217485149204351006ull, 11380534598888207770ull, 4220273600809394984ull});
}

TEST(HostPins, Plan3DTwoBluesteinAxes) {
  expect_hashes(plan3d_hashes(Shape3{11, 12, 13}, 71),
                {1065530602188164949ull, 12425641071549429559ull, 5350504748735341185ull, 16430864774467826977ull});
}

TEST(HostPins, Plan3DScaledByN) {
  // Y takes Bluestein (m = 256) on planes smaller than its buffers.
  static constexpr Shape3 kShape{2, 97, 2};
  expect_hashes(complex_hashes(kShape.volume(), 81,
                               []<typename T>(std::span<cx<T>> data,
                                              Direction d) {
                                 Plan3D<T>(kShape, d, Scaling::ByN)
                                     .execute(data);
                               }),
                {13130404684251357340ull, 5400297913560771540ull, 9702692730594153624ull, 14730147495068852844ull});
}

// ---- Split half-spectrum real plans ----

template <typename T>
std::pair<std::uint64_t, std::uint64_t> real_hashes(Shape3 shape,
                                                    std::uint64_t seed) {
  std::vector<T> in(shape.volume());
  SplitMix64 rng(seed);
  for (auto& x : in) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  PlanR2C3D<T> r2c(shape);
  std::vector<cx<T>> spectrum(r2c.spectrum_elems());
  r2c.execute(std::span<const T>(in), std::span<cx<T>>(spectrum));
  std::vector<T> back(shape.volume());
  PlanC2R3D<T>(shape).execute(std::span<const cx<T>>(spectrum),
                              std::span<T>(back));
  return {output_hash(spectrum), output_hash(back)};
}

TEST(HostPins, RealSplit3D) {
  // Pow2 X (the split layout's main-block pitch), 7-smooth Y, Bluestein Z.
  constexpr Shape3 kShape{16, 12, 11};
  const auto [f_fwd, f_inv] = real_hashes<float>(kShape, 91);
  const auto [d_fwd, d_inv] = real_hashes<double>(kShape, 92);
  expect_hashes({f_fwd, f_inv, d_fwd, d_inv}, {904328826687152882ull, 11901936271565113270ull, 5970034160738875593ull, 15795274972226675043ull});
}

TEST(HostPins, RealSplitOneColumnMainBlock) {
  // nx = 2: main-block pitch 1, so both regions are one column wide;
  // ny = 1 and a Bluestein Z.
  constexpr Shape3 kShape{2, 1, 17};
  const auto [f_fwd, f_inv] = real_hashes<float>(kShape, 93);
  const auto [d_fwd, d_inv] = real_hashes<double>(kShape, 94);
  expect_hashes({f_fwd, f_inv, d_fwd, d_inv}, {5510394872963354ull, 2602163820668600493ull, 2139833633485074536ull, 1398009427057095605ull});
}

TEST(HostPins, RealSplitBluesteinY) {
  // Bluestein Y, 7-smooth Z.
  constexpr Shape3 kShape{20, 13, 7};
  const auto [f_fwd, f_inv] = real_hashes<float>(kShape, 95);
  const auto [d_fwd, d_inv] = real_hashes<double>(kShape, 96);
  expect_hashes({f_fwd, f_inv, d_fwd, d_inv}, {12355339448109471534ull, 15420207614080463346ull, 12778080932113279449ull, 4851327814598266187ull});
}

}  // namespace
}  // namespace repro::fft
