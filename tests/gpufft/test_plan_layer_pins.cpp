// Golden pins of the single-card plan layer: every in-core plan the
// paper's kernels and baselines run, each executed on a fresh simulated
// device. Each case pins, exactly, every step row (name, ms, GB/s),
// last_total_ms(), the device clock and PCIe byte counters, the number of
// shared twiddle tables, an FNV-1a hash over the launch history (name,
// total, memory and compute ms, DRAM bytes and coalesced fraction of every
// launch) and an FNV-1a hash over the output. The tuner cases pin the best
// config, the bits of model_ms and the evaluated count. The simulated
// clock is deterministic, so a refactor of the plan layer must leave every
// value bit-identical.
//
// On a mismatch the test prints the observed pin as a C++ initializer, so
// a deliberate re-baseline is a copy of that line.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpufft/batch1d.h"
#include "gpufft/cache.h"
#include "gpufft/conventional3d.h"
#include "gpufft/convolution.h"
#include "gpufft/mixed3d.h"
#include "gpufft/naive.h"
#include "gpufft/noshared.h"
#include "gpufft/plan.h"
#include "gpufft/plan2d.h"
#include "gpufft/planner.h"
#include "gpufft/real3d.h"

namespace repro::gpufft {
namespace {

struct Row {
  std::string name;
  double ms{};
  double gbs{};
};

struct Pin {
  std::vector<Row> rows;
  double last_total_ms{};
  double elapsed_ms{};
  std::uint64_t h2d_bytes{};
  std::uint64_t d2h_bytes{};
  std::size_t twiddle_tables{};
  std::uint64_t history_hash{};
  std::uint64_t output_hash{};
};

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t len) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::uint64_t output_hash(std::span<const cx<T>> out) {
  return fnv1a(kFnvBasis, out.data(), out.size_bytes());
}

/// Rows, plan total and everything the device observed.
template <typename T>
Pin observe(const std::vector<StepTiming>& steps, double last_total_ms,
            Device& dev, std::span<const cx<T>> out) {
  Pin p;
  for (const auto& s : steps) p.rows.push_back({s.name, s.ms, s.gbs});
  p.last_total_ms = last_total_ms;
  p.elapsed_ms = dev.elapsed_ms();
  p.h2d_bytes = dev.h2d_bytes();
  p.d2h_bytes = dev.d2h_bytes();
  p.twiddle_tables = ResourceCache::of(dev).twiddle_tables();
  std::uint64_t h = kFnvBasis;
  for (const auto& l : dev.history()) {
    h = fnv1a(h, l.name.data(), l.name.size());
    h = fnv1a(h, &l.total_ms, sizeof l.total_ms);
    h = fnv1a(h, &l.mem_ms, sizeof l.mem_ms);
    h = fnv1a(h, &l.compute_ms, sizeof l.compute_ms);
    h = fnv1a(h, &l.dram_bytes, sizeof l.dram_bytes);
    h = fnv1a(h, &l.coalesced_fraction, sizeof l.coalesced_fraction);
  }
  p.history_hash = h;
  p.output_hash = output_hash(out);
  return p;
}

/// The pin as a C++ initializer (the re-baseline line).
std::string to_cpp(const Pin& p) {
  std::string s;
  auto put = [&s](const char* fmt, auto v) {
    char buf[96];
    std::snprintf(buf, sizeof buf, fmt, v);
    s += buf;
  };
  s += "{{";
  for (std::size_t i = 0; i < p.rows.size(); ++i) {
    put(i == 0 ? "{\"%s\", " : ", {\"%s\", ", p.rows[i].name.c_str());
    put("%.17g, ", p.rows[i].ms);
    put("%.17g}", p.rows[i].gbs);
  }
  put("}, %.17g, ", p.last_total_ms);
  put("%.17g, ", p.elapsed_ms);
  put("%lluu, ", static_cast<unsigned long long>(p.h2d_bytes));
  put("%lluu, ", static_cast<unsigned long long>(p.d2h_bytes));
  put("%zuu, ", p.twiddle_tables);
  put("%lluull, ", static_cast<unsigned long long>(p.history_hash));
  put("%lluull}", static_cast<unsigned long long>(p.output_hash));
  return s;
}

void expect_pin(const Pin& got, const Pin& want) {
  SCOPED_TRACE("observed pin: " + to_cpp(got));
  // Exact comparisons throughout: the simulated clock is deterministic.
  EXPECT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < std::min(got.rows.size(), want.rows.size());
       ++i) {
    EXPECT_EQ(got.rows[i].name, want.rows[i].name) << i;
    EXPECT_EQ(got.rows[i].ms, want.rows[i].ms) << i;
    EXPECT_EQ(got.rows[i].gbs, want.rows[i].gbs) << i;
  }
  EXPECT_EQ(got.last_total_ms, want.last_total_ms);
  EXPECT_EQ(got.elapsed_ms, want.elapsed_ms);
  EXPECT_EQ(got.h2d_bytes, want.h2d_bytes);
  EXPECT_EQ(got.d2h_bytes, want.d2h_bytes);
  EXPECT_EQ(got.twiddle_tables, want.twiddle_tables);
  EXPECT_EQ(got.history_hash, want.history_hash);
  EXPECT_EQ(got.output_hash, want.output_hash);
}

/// A plan's execute() over one device-resident copy of `input`.
template <typename T, typename Plan>
Pin run_device(Plan& plan, Device& dev, const std::vector<cx<T>>& input) {
  auto buf = dev.alloc<cx<T>>(input.size());
  dev.h2d(buf, std::span<const cx<T>>(input));
  const auto steps = plan.execute(buf);
  std::vector<cx<T>> out(input.size());
  dev.d2h(std::span<cx<T>>(out), buf);
  return observe<T>(steps, plan.last_total_ms(), dev,
                    std::span<const cx<T>>(out));
}

/// A plan's execute_host() over a host copy of `input`.
template <typename T, typename Plan>
Pin run_host(Plan& plan, Device& dev, const std::vector<cx<T>>& input) {
  std::vector<cx<T>> data = input;
  const auto steps = plan.execute_host(std::span<cx<T>>(data));
  return observe<T>(steps, plan.last_total_ms(), dev,
                    std::span<const cx<T>>(data));
}

constexpr std::size_t kN = 32;

std::vector<cxf> cube_input(std::uint64_t seed) {
  return random_complex<float>(kN * kN * kN, seed);
}

std::vector<cxf> real_input(std::uint64_t seed) {
  std::vector<float> reals(kN * kN * kN);
  SplitMix64 rng(seed);
  for (auto& x : reals) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return pack_real_volume<float>(reals, cube(kN));
}

/// A config that moves every launch knob off Table 2.
TuneConfig off_table2() {
  TuneConfig t;
  t.coarse_twiddles = TwiddleSource::Texture;
  t.fine_twiddles = TwiddleSource::Constant;
  t.blocks_per_sm = 2;
  t.threads_per_block = 128;
  t.coarse_radix = 8;
  t.shmem_pad_words = 8;
  return t;
}

// ---- Bandwidth3D ----

TEST(PlanLayerPins, Bandwidth3DForward) {
  Device dev(sim::geforce_8800_gtx());
  BandwidthFft3D plan(dev, cube(kN), Direction::Forward);
  expect_pin(
      run_device<float>(plan, dev, cube_input(1)),
      {{{"step1 (Z rank1)", 0.017041090909090808, 30.76610545633034},
        {"step2 (Z rank2)", 0.017189090909090807, 30.501205838798576},
        {"step3 (Y rank1)", 0.017041090909090808, 30.76610545633034},
        {"step4 (Y rank2)", 0.017189090909090807, 30.501205838798576},
        {"step5 (X fine)", 0.038623636363628873, 13.574278585889749}},
       0.1070839999999921, 0.33838558568857036, 262400u, 262144u, 1u,
       8009044043716074312ull, 12521106743090982065ull});
}

TEST(PlanLayerPins, Bandwidth3DInverse) {
  Device dev(sim::geforce_8800_gtx());
  BandwidthFft3D plan(dev, cube(kN), Direction::Inverse);
  expect_pin(
      run_device<float>(plan, dev, cube_input(2)),
      {{{"step1 (Z rank1)", 0.017041090909090808, 30.76610545633034},
        {"step2 (Z rank2)", 0.017189090909090807, 30.501205838798576},
        {"step3 (Y rank1)", 0.017041090909090808, 30.76610545633034},
        {"step4 (Y rank2)", 0.017189090909090807, 30.501205838798576},
        {"step5 (X fine)", 0.038623636363628873, 13.574278585889749}},
       0.1070839999999921, 0.33838558568857036, 262400u, 262144u, 1u,
       8009044043716074312ull, 9257403845507695020ull});
}

TEST(PlanLayerPins, Bandwidth3DTuned) {
  Device dev(sim::geforce_8800_gts());
  BandwidthFft3D plan(dev, cube(kN), Direction::Forward, off_table2());
  expect_pin(
      run_device<float>(plan, dev, cube_input(3)),
      {{{"step1 (Z rank1)", 0.020581541705716678, 25.473699079324806},
        {"step2 (Z rank2)", 0.020198489222118012, 25.956792819231616},
        {"step3 (Y rank1)", 0.020581541705716678, 25.473699079324806},
        {"step4 (Y rank2)", 0.020198489222118012, 25.956792819231616},
        {"step5 (X fine)", 0.049241956888467435, 10.647180435731004}},
       0.13080201874413683, 0.2945565187460914, 262400u, 262144u, 1u,
       14092238040138851284ull, 14306237175128091172ull});
}

TEST(PlanLayerPins, Bandwidth3DDoubleGtx280) {
  Device dev(sim::geforce_gtx_280());
  BandwidthFft3DT<double> plan(dev, cube(kN), Direction::Forward);
  expect_pin(
      run_device<double>(plan, dev, random_complex<double>(kN * kN * kN, 4)),
      {{{"step1 (Z rank1)", 0.035986282578875164, 29.138213920866058},
        {"step2 (Z rank2)", 0.020798353909465019, 50.416297586070442},
        {"step3 (Y rank1)", 0.035986282578875164, 29.138213920866058},
        {"step4 (Y rank2)", 0.020798353909465019, 50.416297586070442},
        {"step5 (X fine)", 0.069654320987654311, 15.05399787309465}},
       0.18322359396433469, 0.44123339453413524, 524800u, 524288u, 1u,
       4512117670734849574ull, 12920793399168140840ull});
}

TEST(PlanLayerPins, Bandwidth3DExecuteBatchTwoBuffers) {
  Device dev(sim::geforce_8800_gtx());
  BandwidthFft3D plan(dev, cube(kN), Direction::Forward);
  const auto in0 = cube_input(5);
  const auto in1 = cube_input(6);
  auto b0 = dev.alloc<cxf>(in0.size());
  auto b1 = dev.alloc<cxf>(in1.size());
  dev.h2d(b0, std::span<const cxf>(in0));
  dev.h2d(b1, std::span<const cxf>(in1));
  DeviceBuffer<cxf>* vols[] = {&b0, &b1};
  const auto steps = plan.execute_batch(vols);
  std::vector<cxf> out(2 * in0.size());
  dev.d2h(std::span<cxf>(out).first(in0.size()), b0);
  dev.d2h(std::span<cxf>(out).subspan(in0.size()), b1);
  expect_pin(
      observe<float>(steps, plan.last_total_ms(), dev,
                     std::span<const cxf>(out)),
      {{{"step1 (Z rank1)", 0.034090080808080611, 30.758976662544274},
        {"step2 (Z rank2)", 0.034404181818181619, 30.478155403941557},
        {"step3 (Y rank1)", 0.034090080808080611, 30.758976662544274},
        {"step4 (Y rank2)", 0.034404181818181619, 30.478155403941557},
        {"step5 (X fine)", 0.078741931518040306, 13.316615172943328}},
       0.21573045677056479, 0.65824284800587762, 524544u, 524288u, 1u,
       4503818627464942407ull, 2817140993872665894ull});
}

TEST(PlanLayerPins, Bandwidth3DExecuteBatchHostTwoVolumes) {
  Device dev(sim::geforce_gtx_280());
  BandwidthFft3D plan(dev, cube(kN), Direction::Inverse);
  std::vector<cxf> data = cube_input(7);
  const auto in1 = cube_input(8);
  data.insert(data.end(), in1.begin(), in1.end());
  const std::size_t vol = kN * kN * kN;
  const std::span<cxf> all(data);
  const std::vector<std::span<cxf>> vols{all.first(vol), all.subspan(vol)};
  const auto steps = plan.execute_batch_host(vols);
  expect_pin(
      observe<float>(steps, plan.last_total_ms(), dev,
                     std::span<const cxf>(data)),
      {{{"step1 (Z rank1)", 0.028668420706392323, 36.575994566948523},
        {"step2 (Z rank2)", 0.028878145027510987, 36.31036546845602},
        {"step3 (Y rank1)", 0.028668420706392323, 36.575994566948523},
        {"step4 (Y rank2)", 0.028878145027510987, 36.31036546845602},
        {"step5 (X fine)", 0.058246114299358054, 18.002505619702028}},
       0.31229673864465751, 0.33234414605206491, 524544u, 524288u, 1u,
       2135704926835346952ull, 892949801650174609ull});
}

// ---- Real3D ----

TEST(PlanLayerPins, Real3DForward) {
  Device dev(sim::geforce_8800_gtx());
  RealFft3DPlan plan(dev, cube(kN), Direction::Forward);
  expect_pin(
      run_device<float>(plan, dev, real_input(9)),
      {{{"step1 (X r2c fine)", 0.024679454545455146, 11.28582479353428},
        {"step2 (Z rank1)", 0.024143808080808092, 11.536208334152633},
        {"step3 (Z rank2)", 0.024183808080808094, 11.517127454424172},
        {"step4 (Y rank1)", 0.024143808080808092, 11.536208334152633},
        {"step5 (Y rank2)", 0.024183808080808094, 11.517127454424172}},
       0.12133468686868752, 0.29242659752815603, 139648u, 139264u, 2u,
       7682494708231039611ull, 9451845793916604743ull});
}

TEST(PlanLayerPins, Real3DInverse) {
  Device dev(sim::geforce_8800_gtx());
  RealFft3DPlan plan(dev, cube(kN), Direction::Inverse);
  expect_pin(
      run_device<float>(plan, dev, real_input(10)),
      {{{"step1 (Z rank1)", 0.024143808080808092, 11.536208334152633},
        {"step2 (Z rank2)", 0.024183808080808094, 11.517127454424172},
        {"step3 (Y rank1)", 0.024143808080808092, 11.536208334152633},
        {"step4 (Y rank2)", 0.024183808080808094, 11.517127454424172},
        {"step5 (X c2r fine)", 0.025156303030303653, 11.071897156926479}},
       0.12181153535353603, 0.29290344601300461, 139648u, 139264u, 2u,
       18437514636088007811ull, 2882690208524739935ull});
}

TEST(PlanLayerPins, Real3DInverseTunedHost) {
  Device dev(sim::geforce_8800_gts());
  RealFft3DPlan plan(dev, cube(kN), Direction::Inverse, off_table2());
  expect_pin(
      run_host<float>(plan, dev, real_input(11)),
      {{{"step1 (Z rank1)", 0.025869023925557663, 10.766853855851297},
        {"step2 (Z rank2)", 0.025716266166822835, 10.830810281444963},
        {"step3 (Y rank1)", 0.025869023925557663, 10.766853855851297},
        {"step4 (Y rank2)", 0.025716266166822835, 10.830810281444963},
        {"step5 (X c2r fine)", 0.030559626991567397, 9.1142473720918389}},
       0.13373020717632839, 0.26889738607012109, 139648u, 139264u, 2u,
       13929601223941555874ull, 17389563440455866859ull});
}

// ---- Bandwidth2D and Batch1D ----

TEST(PlanLayerPins, Bandwidth2D) {
  Device dev(sim::geforce_8800_gtx());
  BandwidthFft2D plan(dev, Shape2{64, 32}, Direction::Forward);
  expect_pin(
      run_device<float>(plan, dev, random_complex<float>(64 * 32, 12)),
      {{{"Y rank1", 0.010447444444444445, 3.136460803811671},
        {"Y rank2", 0.010447444444444445, 3.136460803811671},
        {"X fine", 0.011739917695473249, 2.7911609646662936}},
       0.032634806584362137, 0.12360782235656496, 17152u, 16384u, 2u,
       13938257057436990345ull, 18155470165330424650ull});
}

TEST(PlanLayerPins, Batch1D) {
  Device dev(sim::geforce_8800_gtx());
  Batch1DFft plan(dev, 256, 64, Direction::Inverse);
  expect_pin(
      run_device<float>(plan, dev, random_complex<float>(256 * 64, 13)),
      {{{"batch1d (fine)", 0.018059259259259258, 14.515767022149303}},
       0.018059259259259258, 0.16439090316737823, 133120u, 131072u, 1u,
       17029356616913038546ull, 3227423739097464210ull});
}

// ---- Mixed3D ----

constexpr Shape3 kMixed{20, 12, 11};  // 7-smooth X and Y, Bluestein Z

TuneConfig padded() {
  TuneConfig t;
  t.pitch = PitchMode::Padded;
  return t;
}

TEST(PlanLayerPins, Mixed3DDenseExecute) {
  Device dev(sim::geforce_8800_gtx());
  MixedFft3D plan(dev, kMixed, Direction::Forward);
  expect_pin(
      run_device<float>(plan, dev, random_complex<float>(kMixed.volume(), 14)),
      {{{"X (mixed-radix lines)", 0.013452044753086418, 3.1400430771172179},
        {"Y (mixed-radix lines)", 0.012224222222222195, 3.4554345652529661},
        {"Z (Bluestein lines, m=32)", 0.027174999999999998, 1.554369825206992}},
       0.052851266975308613, 0.10664510628937655, 21120u, 21120u, 0u,
       687284840056580088ull, 5346586276456039820ull});
}

TEST(PlanLayerPins, Mixed3DPaddedExecute) {
  Device dev(sim::geforce_8800_gtx());
  MixedFft3D plan(dev, kMixed, Direction::Forward, padded());
  const std::size_t elems = plan.desc().buffer_elements();
  expect_pin(
      run_device<float>(plan, dev, random_complex<float>(elems, 15)),
      {{{"X (mixed-radix lines)", 0.013452044753086418, 3.1400430771172179},
        {"Y (mixed-radix lines)", 0.012123341049382716, 3.484188049147618},
        {"Z (Bluestein lines, m=32)", 0.027174999999999998, 1.554369825206992}},
       0.05275038580246913, 0.11482052870497785, 33792u, 33792u, 0u,
       14927712332936147258ull, 6159248103312361009ull});
}

TEST(PlanLayerPins, Mixed3DDenseExecuteHost) {
  Device dev(sim::geforce_8800_gtx());
  MixedFft3D plan(dev, kMixed, Direction::Inverse);
  expect_pin(
      run_host<float>(plan, dev, random_complex<float>(kMixed.volume(), 16)),
      {{{"X (mixed-radix lines)", 0.013452044753086418, 3.1400430771172179},
        {"Y (mixed-radix lines)", 0.012224222222222195, 3.4554345652529661},
        {"Z (Bluestein lines, m=32)", 0.027174999999999998, 1.554369825206992}},
       0.052851266975308613, 0.10664510628937655, 21120u, 21120u, 0u,
       687284840056580088ull, 17722871236027275859ull});
}

TEST(PlanLayerPins, Mixed3DPaddedExecuteHost) {
  Device dev(sim::geforce_8800_gtx());
  MixedFft3D plan(dev, kMixed, Direction::Inverse, padded());
  expect_pin(
      run_host<float>(plan, dev, random_complex<float>(kMixed.volume(), 17)),
      {{{"X (mixed-radix lines)", 0.013452044753086418, 3.1400430771172179},
        {"Y (mixed-radix lines)", 0.012123341049382716, 3.484188049147618},
        {"Z (Bluestein lines, m=32)", 0.027174999999999998, 1.554369825206992}},
       0.05275038580246913, 0.11482052870497785, 33792u, 33792u, 0u,
       14927712332936147258ull, 5148042487533452514ull});
}

// ---- Baselines ----

TEST(PlanLayerPins, ConventionalNaive) {
  Device dev(sim::geforce_8800_gtx());
  ConventionalFft3D plan(dev, cube(kN), Direction::Forward);
  expect_pin(
      run_device<float>(plan, dev, cube_input(18)),
      {{{"step1 (FFT X)", 0.03958201010100254, 13.245613314284935},
        {"step2 (transpose->zxy)", 0.030895167795440714, 16.96990297872312},
        {"step3 (FFT Z)", 0.03958201010100254, 13.245613314284935},
        {"step4 (transpose->yzx)", 0.030895167795440714, 16.96990297872312},
        {"step5 (FFT Y)", 0.03958201010100254, 13.245613314284935},
        {"step6 (transpose->xyz)", 0.030895167795440714, 16.96990297872312}},
       0.21143153368932976, 0.44273311937790805, 262400u, 262144u, 1u,
       14843405407905388819ull, 3797730157675318700ull});
}

TEST(PlanLayerPins, ConventionalTiledTuned) {
  Device dev(sim::geforce_8800_gts());
  ConventionalFft3D plan(dev, cube(kN), Direction::Inverse, off_table2(),
                         TransposeStrategy::Tiled);
  expect_pin(
      run_device<float>(plan, dev, cube_input(19)),
      {{{"step1 (FFT X)", 0.054637863167749143, 9.595690050877927},
        {"step2 (transpose->zxy)", 0.020192000937206859, 25.965133501649106},
        {"step3 (FFT Z)", 0.054637863167749143, 9.595690050877927},
        {"step4 (transpose->yzx)", 0.020192000937206859, 25.965133501649106},
        {"step5 (FFT Y)", 0.054637863167749143, 9.595690050877927},
        {"step6 (transpose->xyz)", 0.020192000937206859, 25.965133501649106}},
       0.22448959231486798, 0.3882440923168225, 262400u, 262144u, 1u,
       9142885062482749215ull, 4264321988228840220ull});
}

TEST(PlanLayerPins, Naive3D) {
  Device dev(sim::geforce_8800_gtx());
  NaiveFft3D plan(dev, cube(kN), Direction::Forward);
  expect_pin(
      run_device<float>(plan, dev, cube_input(20)),
      {{{"X (naive shared-memory FFT)", 0.028633744855967078,
         18.310144294337455},
        {"Y radix-2 pass 1", 0.01701909090909081, 30.805875754500473},
        {"Y radix-2 pass 2", 0.017023090909090811, 30.798637145268103},
        {"Y radix-2 pass 3", 0.01702209090909081, 30.800446478640236},
        {"Y radix-2 pass 4", 0.017023090909090811, 30.798637145268103},
        {"Y radix-2 pass 5", 0.017020090909090808, 30.804065783218949},
        {"copy back", 0.01701209090909081, 30.818551511492007},
        {"Z radix-2 pass 1", 0.017424090909090802, 30.089833824642138},
        {"Z radix-2 pass 2", 0.017418989898989792, 30.098645388755056},
        {"Z radix-2 pass 3", 0.017397090909090803, 30.136532753647607},
        {"Z radix-2 pass 4", 0.017389090909090802, 30.150397323295877},
        {"Z radix-2 pass 5", 0.017379090909090802, 30.167745985248917},
        {"copy back", 0.01701209090909081, 30.818551511492007}},
       0.23477373475495575, 0.44598454030169021, 262144u, 262144u, 0u,
       15358035591964365864ull, 11516609974611038585ull});
}

// ---- Convolution ----

TEST(PlanLayerPins, ConvolutionComplex) {
  Device dev(sim::geforce_8800_gtx());
  Convolution3D conv(dev, cube(kN));
  const auto filter = cube_input(21);
  conv.set_filter(filter);
  expect_pin(
      run_device<float>(conv, dev, cube_input(22)),
      {{{"step1 (Z rank1)", 0.017047090909090814, 30.755276826758138},
        {"step2 (Z rank2)", 0.01720309090909081, 30.476383736538008},
        {"step3 (Y rank1)", 0.017047090909090814, 30.755276826758138},
        {"step4 (Y rank2)", 0.01720309090909081, 30.476383736538008},
        {"step5 (X fine)", 0.038692276136526559, 13.550197929685968},
        {"pointwise multiply", 0.020518914000071185, 25.55144975012718},
        {"step1 (Z rank1)", 0.017047090909090814, 30.755276826758138},
        {"step2 (Z rank2)", 0.01720309090909081, 30.476383736538008},
        {"step3 (Y rank1)", 0.017047090909090814, 30.755276826758138},
        {"step4 (Y rank2)", 0.01720309090909081, 30.476383736538008},
        {"step5 (X fine)", 0.038641153740270572, 13.56812489409714},
        {"scale 1/N", 0.016953090909090814, 30.925805967268143}},
       0.25180616205868567, 0.72331455939289513, 524800u, 262144u, 2u,
       4495362967169230363ull, 1639324171829133782ull});
}

TEST(PlanLayerPins, ConvolutionReal) {
  Device dev(sim::geforce_8800_gtx());
  Convolution3D conv(dev, cube(kN), Layout::RealHalfSpectrum);
  std::vector<float> filter(kN * kN * kN);
  SplitMix64 rng(23);
  for (auto& x : filter) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  conv.set_filter_real(filter);
  expect_pin(
      run_device<float>(conv, dev, real_input(24)),
      {{{"step1 (X r2c fine)", 0.024964181818182427, 11.157105088745057},
        {"step2 (Z rank1)", 0.024106404040404053, 11.554108175286832},
        {"step3 (Z rank2)", 0.02413840404040405, 11.538791029174345},
        {"step4 (Y rank1)", 0.024106404040404053, 11.554108175286832},
        {"step5 (Y rank2)", 0.02413840404040405, 11.538791029174345},
        {"pointwise multiply", 0.015643052700908298, 17.805220331695715},
        {"step1 (Z rank1)", 0.024106404040404053, 11.554108175286832},
        {"step2 (Z rank2)", 0.02413840404040405, 11.538791029174345},
        {"step3 (Y rank1)", 0.024106404040404053, 11.554108175286832},
        {"step4 (Y rank2)", 0.02413840404040405, 11.538791029174345},
        {"step5 (X c2r fine)", 0.025567434343434985, 10.893858032787648}},
       0.2591539011857581, 0.66123041326603271, 279296u, 139264u, 4u,
       5289086299422704794ull, 11362511827045966381ull});
}

// ---- Table 9 X-axis ablation ----

Pin x_axis(ExchangeMode mode) {
  Device dev(sim::geforce_8800_gtx());
  const auto input = random_complex<float>(256 * 64, 25);
  auto buf = dev.alloc<cxf>(input.size());
  dev.h2d(buf, std::span<const cxf>(input));
  const XAxisAblationResult r =
      run_x_axis_variant(dev, buf, 256, 64, Direction::Forward, mode);
  std::vector<cxf> out(input.size());
  dev.d2h(std::span<cxf>(out), buf);
  return observe<float>(r.steps, r.total_ms, dev, std::span<const cxf>(out));
}

TEST(PlanLayerPins, XAxisSharedMemory) {
  expect_pin(
      x_axis(ExchangeMode::SharedMemory),
      {{{"X shared-memory", 0.018059259259259258, 14.515767022149303}},
       0.018059259259259258, 0.16439090316737823, 133120u, 131072u, 0u,
       12850278634501019728ull, 9041725822546257097ull});
}

TEST(PlanLayerPins, XAxisTexture) {
  expect_pin(
      x_axis(ExchangeMode::TextureMemory),
      {{{"X pass A (16-pt, coalesced)", 0.013572545454545466,
         19.314284183311216},
        {"X pass B (16-pt, texture gather)", 0.014120060606060615,
         18.565359406990257}},
       0.027692606060606081, 0.15329800883397329, 131072u, 131072u, 0u,
       16526389401790624827ull, 6610833222094317031ull});
}

TEST(PlanLayerPins, XAxisNonCoalesced) {
  expect_pin(
      x_axis(ExchangeMode::NonCoalesced),
      {{{"X pass A (16-pt, coalesced)", 0.013572545454545466,
         19.314284183311216},
        {"X pass B (16-pt, non-coalesced gather)", 0.020312111111111308,
         12.905797854591277}},
       0.033884656565656771, 0.15949005933902399, 131072u, 131072u, 0u,
       4857654439842341687ull, 6610833222094317031ull});
}

// ---- Tuner ----

struct TunePin {
  std::string best;
  std::uint64_t model_ms_bits{};
  std::size_t evaluated{};
};

void expect_tune(const sim::GpuSpec& spec, const PlanDesc& desc,
                 const TunePin& want) {
  const TuneResult r = tune_plan(spec, desc);
  const TunePin got{r.best.to_string(),
                    std::bit_cast<std::uint64_t>(r.model_ms), r.evaluated};
  SCOPED_TRACE("observed pin: {\"" + got.best + "\", " +
               std::to_string(got.model_ms_bits) + "ull, " +
               std::to_string(got.evaluated) + "u}");
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.model_ms_bits, want.model_ms_bits);
  EXPECT_EQ(got.evaluated, want.evaluated);
}

TEST(PlanLayerPins, TuneBandwidth3D) {
  expect_tune(
      sim::geforce_8800_gtx(),
      PlanDesc::bandwidth3d(cube(16), Direction::Forward),
      {"ctw=registers ftw=texture grid=0 bps=3 tpb=64 radix=16 "
       "pad=16 slab=0 pitch=dense",
       4588105183017214367ull, 864u});
}

TEST(PlanLayerPins, TuneBandwidth3DDouble) {
  expect_tune(
      sim::geforce_gtx_280(),
      PlanDesc::bandwidth3d(Shape3{32, 16, 16}, Direction::Inverse,
                            Precision::F64),
      {"ctw=registers ftw=texture grid=0 bps=2 tpb=64 radix=16 "
       "pad=8 slab=0 pitch=dense",
       4590737620516221674ull, 864u});
}

TEST(PlanLayerPins, TuneReal3D) {
  expect_tune(
      sim::geforce_8800_gts(),
      PlanDesc::real3d(Shape3{32, 16, 16}, Direction::Forward),
      {"ctw=registers ftw=texture grid=0 bps=3 tpb=64 radix=16 "
       "pad=16 slab=0 pitch=dense",
       4591626027108494708ull, 864u});
}

TEST(PlanLayerPins, TuneMixed3D) {
  expect_tune(
      sim::geforce_8800_gtx(),
      PlanDesc::mixed3d(kMixed, Direction::Forward),
      {"ctw=registers ftw=texture grid=0 bps=1 tpb=64 radix=16 "
       "pad=0 slab=0 pitch=padded",
       4586506921050061218ull, 1728u});
}

}  // namespace
}  // namespace repro::gpufft
