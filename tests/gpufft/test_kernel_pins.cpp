// Golden pins of the kernel layer under every twiddle source: the coarse
// rank kernels, the fine X kernel, the fused real X pass and both argmax
// launches. The plan-layer pins run Table 2's sources and one off-table
// config; these run each coarse and each fine source through the paper's
// plans in both directions. The kernels read the coarse and the fine
// source independently, so four pairs cover all sixteen: coarse source i
// runs with fine source i + 2 (mod 4), which includes Table 2's pair.
//
// Each case pins, exactly, every step row (name, ms, GB/s), the device
// clock, an FNV-1a hash over the launch history (name, total, memory and
// compute ms, DRAM bytes and coalesced fraction of every launch) and an
// FNV-1a hash over the output. The argmax cases pin the argmax launch's
// row and the returned BestMatch in place of the output hash. On a
// mismatch the test prints the observed pin as a C++ initializer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpufft/convolution.h"
#include "gpufft/plan.h"
#include "gpufft/plan2d.h"
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
  double elapsed_ms{};
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

std::uint64_t history_hash(const Device& dev) {
  std::uint64_t h = kFnvBasis;
  for (const auto& l : dev.history()) {
    h = fnv1a(h, l.name.data(), l.name.size());
    h = fnv1a(h, &l.total_ms, sizeof l.total_ms);
    h = fnv1a(h, &l.mem_ms, sizeof l.mem_ms);
    h = fnv1a(h, &l.compute_ms, sizeof l.compute_ms);
    h = fnv1a(h, &l.dram_bytes, sizeof l.dram_bytes);
    h = fnv1a(h, &l.coalesced_fraction, sizeof l.coalesced_fraction);
  }
  return h;
}

void put(std::string& s, const char* fmt, auto v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, fmt, v);
  s += buf;
}

void put_row(std::string& s, const Row& r) {
  put(s, "{\"%s\", ", r.name.c_str());
  put(s, "%.17g, ", r.ms);
  put(s, "%.17g}", r.gbs);
}

void expect_row(const Row& got, const Row& want, std::size_t i) {
  EXPECT_EQ(got.name, want.name) << i;
  EXPECT_EQ(got.ms, want.ms) << i;
  EXPECT_EQ(got.gbs, want.gbs) << i;
}

/// The pin as a C++ initializer (the re-baseline line).
std::string to_cpp(const Pin& p) {
  std::string s = "{{";
  for (std::size_t i = 0; i < p.rows.size(); ++i) {
    if (i != 0) s += ", ";
    put_row(s, p.rows[i]);
  }
  put(s, "}, %.17g, ", p.elapsed_ms);
  put(s, "%lluull, ", static_cast<unsigned long long>(p.history_hash));
  put(s, "%lluull}", static_cast<unsigned long long>(p.output_hash));
  return s;
}

void expect_pin(const Pin& got, const Pin& want) {
  SCOPED_TRACE("observed pin: " + to_cpp(got));
  // Exact comparisons throughout: the simulated clock is deterministic.
  EXPECT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < std::min(got.rows.size(), want.rows.size());
       ++i) {
    expect_row(got.rows[i], want.rows[i], i);
  }
  EXPECT_EQ(got.elapsed_ms, want.elapsed_ms);
  EXPECT_EQ(got.history_hash, want.history_hash);
  EXPECT_EQ(got.output_hash, want.output_hash);
}

/// One plan execute() over a device-resident copy of `input` on a fresh
/// device.
template <typename T, typename Plan>
Pin run_device(Plan& plan, Device& dev, const std::vector<cx<T>>& input) {
  auto buf = dev.alloc<cx<T>>(input.size());
  dev.h2d(buf, std::span<const cx<T>>(input));
  const auto steps = plan.execute(buf);
  std::vector<cx<T>> out(input.size());
  dev.d2h(std::span<cx<T>>(out), buf);
  Pin p;
  for (const auto& s : steps) p.rows.push_back({s.name, s.ms, s.gbs});
  p.elapsed_ms = dev.elapsed_ms();
  p.history_hash = history_hash(dev);
  p.output_hash = fnv1a(kFnvBasis, out.data(), out.size() * sizeof(cx<T>));
  return p;
}

constexpr std::size_t kN = 32;

constexpr std::array<TwiddleSource, 4> kSources = {
    TwiddleSource::Registers, TwiddleSource::Constant, TwiddleSource::Texture,
    TwiddleSource::Recompute};

/// Case i: coarse source i, fine source i + 2 (mod 4).
TuneConfig sources(std::size_t i) {
  TuneConfig t;
  t.coarse_twiddles = kSources[i];
  t.fine_twiddles = kSources[(i + 2) % 4];
  return t;
}

std::string case_name(std::size_t i) {
  const TuneConfig t = sources(i);
  return std::string("coarse ") + twiddle_source_name(t.coarse_twiddles) +
         ", fine " + twiddle_source_name(t.fine_twiddles);
}

template <typename T>
std::vector<cx<T>> real_input(std::uint64_t seed) {
  std::vector<T> reals(kN * kN * kN);
  SplitMix64 rng(seed);
  for (auto& x : reals) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  return pack_real_volume<T>(reals, cube(kN));
}

/// Every source pair through `Plan` (3-D, extent kN) on `spec`.
template <typename T, template <typename> class Plan>
void pin_3d(const sim::GpuSpec& spec, Direction dir,
            const std::vector<cx<T>>& input, const std::array<Pin, 4>& want) {
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(case_name(i));
    Device dev(spec);
    Plan<T> plan(dev, cube(kN), dir, sources(i));
    expect_pin(run_device<T>(plan, dev, input), want[i]);
  }
}

// ---- Bandwidth3D ----

TEST(KernelPins, Bandwidth3DForward) {
  pin_3d<float, BandwidthFft3DT>(
      sim::geforce_8800_gtx(), Direction::Forward,
      random_complex<float>(kN * kN * kN, 1),
      {{
          // coarse registers, fine texture
          {{{"step1 (Z rank1)", 0.017041090909090808, 30.76610545633034},
            {"step2 (Z rank2)", 0.017189090909090807, 30.501205838798576},
            {"step3 (Y rank1)", 0.017041090909090808, 30.76610545633034},
            {"step4 (Y rank2)", 0.017189090909090807, 30.501205838798576},
            {"step5 (X fine)", 0.038623636363628873, 13.574278585889749}},
           0.33838558568857036, 8009044043716074312ull,
           12521106743090982065ull},
          // coarse constant, fine recompute
          {{{"step1 (Z rank1)", 0.017041090909090808, 30.76610545633034},
            {"step2 (Z rank2)", 0.017189090909090807, 30.501205838798576},
            {"step3 (Y rank1)", 0.017041090909090808, 30.76610545633034},
            {"step4 (Y rank2)", 0.017189090909090807, 30.501205838798576},
            {"step5 (X fine)", 0.03778436363635674, 13.875792776235125}},
           0.33754631296129828, 802213404613311941ull,
           12521106743090982065ull},
          // coarse texture, fine registers
          {{{"step1 (Z rank1)", 0.017610737373737258, 29.770928319098449},
            {"step2 (Z rank2)", 0.017189090909090807, 30.501205838798576},
            {"step3 (Y rank1)", 0.017610737373737258, 29.770928319098449},
            {"step4 (Y rank2)", 0.017189090909090807, 30.501205838798576},
            {"step5 (X fine)", 0.03778436363635674, 13.875792776235125}},
           0.33868560589059127, 16446016210657264190ull,
           12521106743090982065ull},
          // coarse recompute, fine constant
          {{{"step1 (Z rank1)", 0.020903703703703699, 25.08110559886606},
            {"step2 (Z rank2)", 0.017189090909090807, 30.501205838798576},
            {"step3 (Y rank1)", 0.020903703703703699, 25.08110559886606},
            {"step4 (Y rank2)", 0.017189090909090807, 30.501205838798576},
            {"step5 (X fine)", 0.03778436363635674, 13.875792776235125}},
           0.34527153855052412, 6423838194431820415ull,
           12521106743090982065ull}
      }});
}

TEST(KernelPins, Bandwidth3DInverse) {
  pin_3d<float, BandwidthFft3DT>(
      sim::geforce_8800_gtx(), Direction::Inverse,
      random_complex<float>(kN * kN * kN, 2),
      {{
          // coarse registers, fine texture
          {{{"step1 (Z rank1)", 0.017041090909090808, 30.76610545633034},
            {"step2 (Z rank2)", 0.017189090909090807, 30.501205838798576},
            {"step3 (Y rank1)", 0.017041090909090808, 30.76610545633034},
            {"step4 (Y rank2)", 0.017189090909090807, 30.501205838798576},
            {"step5 (X fine)", 0.038623636363628873, 13.574278585889749}},
           0.33838558568857036, 8009044043716074312ull,
           9257403845507695020ull},
          // coarse constant, fine recompute
          {{{"step1 (Z rank1)", 0.017041090909090808, 30.76610545633034},
            {"step2 (Z rank2)", 0.017189090909090807, 30.501205838798576},
            {"step3 (Y rank1)", 0.017041090909090808, 30.76610545633034},
            {"step4 (Y rank2)", 0.017189090909090807, 30.501205838798576},
            {"step5 (X fine)", 0.03778436363635674, 13.875792776235125}},
           0.33754631296129828, 802213404613311941ull,
           9257403845507695020ull},
          // coarse texture, fine registers
          {{{"step1 (Z rank1)", 0.017610737373737258, 29.770928319098449},
            {"step2 (Z rank2)", 0.017189090909090807, 30.501205838798576},
            {"step3 (Y rank1)", 0.017610737373737258, 29.770928319098449},
            {"step4 (Y rank2)", 0.017189090909090807, 30.501205838798576},
            {"step5 (X fine)", 0.03778436363635674, 13.875792776235125}},
           0.33868560589059127, 16446016210657264190ull,
           9257403845507695020ull},
          // coarse recompute, fine constant
          {{{"step1 (Z rank1)", 0.020903703703703699, 25.08110559886606},
            {"step2 (Z rank2)", 0.017189090909090807, 30.501205838798576},
            {"step3 (Y rank1)", 0.020903703703703699, 25.08110559886606},
            {"step4 (Y rank2)", 0.017189090909090807, 30.501205838798576},
            {"step5 (X fine)", 0.03778436363635674, 13.875792776235125}},
           0.34527153855052412, 6423838194431820415ull,
           9257403845507695020ull}
      }});
}

TEST(KernelPins, Bandwidth3DDoubleForward) {
  pin_3d<double, BandwidthFft3DT>(
      sim::geforce_gtx_280(), Direction::Forward,
      random_complex<double>(kN * kN * kN, 3),
      {{
          // coarse registers, fine texture
          {{{"step1 (Z rank1)", 0.035986282578875164, 29.138213920866058},
            {"step2 (Z rank2)", 0.020798353909465019, 50.416297586070442},
            {"step3 (Y rank1)", 0.035986282578875164, 29.138213920866058},
            {"step4 (Y rank2)", 0.020798353909465019, 50.416297586070442},
            {"step5 (X fine)", 0.069654320987654311, 15.05399787309465}},
           0.44123339453413524, 4512117670734849574ull,
           13586289096486279199ull},
          // coarse constant, fine recompute
          {{{"step1 (Z rank1)", 0.036454503886602645, 28.763962973183158},
            {"step2 (Z rank2)", 0.020798353909465019, 50.416297586070442},
            {"step3 (Y rank1)", 0.036454503886602645, 28.763962973183158},
            {"step4 (Y rank2)", 0.020798353909465019, 50.416297586070442},
            {"step5 (X fine)", 0.11460356652949244, 9.1495930864433976}},
           0.48711908269142828, 2324515743504450995ull,
           13586289096486279199ull},
          // coarse texture, fine registers
          {{{"step1 (Z rank1)", 0.035986282578875164, 29.138213920866058},
            {"step2 (Z rank2)", 0.020798353909465019, 50.416297586070442},
            {"step3 (Y rank1)", 0.035986282578875164, 29.138213920866058},
            {"step4 (Y rank2)", 0.020798353909465019, 50.416297586070442},
            {"step5 (X fine)", 0.069654320987654311, 15.05399787309465}},
           0.44123339453413524, 2286982003184932642ull,
           13586289096486279199ull},
          // coarse recompute, fine constant
          {{{"step1 (Z rank1)", 0.058460905349794229, 17.936362663663243},
            {"step2 (Z rank2)", 0.020798353909465019, 50.416297586070442},
            {"step3 (Y rank1)", 0.058460905349794229, 17.936362663663243},
            {"step4 (Y rank2)", 0.020798353909465019, 50.416297586070442},
            {"step5 (X fine)", 0.077145861911294009, 13.592122429142119}},
           0.49367418099961302, 17592623321471537924ull,
           13586289096486279199ull}
      }});
}

TEST(KernelPins, Bandwidth3DDoubleInverse) {
  pin_3d<double, BandwidthFft3DT>(
      sim::geforce_gtx_280(), Direction::Inverse,
      random_complex<double>(kN * kN * kN, 4),
      {{
          // coarse registers, fine texture
          {{{"step1 (Z rank1)", 0.035986282578875164, 29.138213920866058},
            {"step2 (Z rank2)", 0.020798353909465019, 50.416297586070442},
            {"step3 (Y rank1)", 0.035986282578875164, 29.138213920866058},
            {"step4 (Y rank2)", 0.020798353909465019, 50.416297586070442},
            {"step5 (X fine)", 0.069654320987654311, 15.05399787309465}},
           0.44123339453413524, 4512117670734849574ull,
           12474368723455846670ull},
          // coarse constant, fine recompute
          {{{"step1 (Z rank1)", 0.036454503886602645, 28.763962973183158},
            {"step2 (Z rank2)", 0.020798353909465019, 50.416297586070442},
            {"step3 (Y rank1)", 0.036454503886602645, 28.763962973183158},
            {"step4 (Y rank2)", 0.020798353909465019, 50.416297586070442},
            {"step5 (X fine)", 0.11460356652949244, 9.1495930864433976}},
           0.48711908269142828, 2324515743504450995ull,
           12474368723455846670ull},
          // coarse texture, fine registers
          {{{"step1 (Z rank1)", 0.035986282578875164, 29.138213920866058},
            {"step2 (Z rank2)", 0.020798353909465019, 50.416297586070442},
            {"step3 (Y rank1)", 0.035986282578875164, 29.138213920866058},
            {"step4 (Y rank2)", 0.020798353909465019, 50.416297586070442},
            {"step5 (X fine)", 0.069654320987654311, 15.05399787309465}},
           0.44123339453413524, 2286982003184932642ull,
           12474368723455846670ull},
          // coarse recompute, fine constant
          {{{"step1 (Z rank1)", 0.058460905349794229, 17.936362663663243},
            {"step2 (Z rank2)", 0.020798353909465019, 50.416297586070442},
            {"step3 (Y rank1)", 0.058460905349794229, 17.936362663663243},
            {"step4 (Y rank2)", 0.020798353909465019, 50.416297586070442},
            {"step5 (X fine)", 0.077145861911294009, 13.592122429142119}},
           0.49367418099961302, 17592623321471537924ull,
           12474368723455846670ull}
      }});
}

// ---- Real3D (fused r2c / c2r X pass) ----

TEST(KernelPins, Real3DForward) {
  pin_3d<float, RealFft3DT>(sim::geforce_8800_gtx(), Direction::Forward,
                            real_input<float>(5),
      {{
          // coarse registers, fine texture
          {{{"step1 (X r2c fine)", 0.024679454545455146, 11.28582479353428},
            {"step2 (Z rank1)", 0.024143808080808092, 11.536208334152633},
            {"step3 (Z rank2)", 0.024183808080808094, 11.517127454424172},
            {"step4 (Y rank1)", 0.024143808080808092, 11.536208334152633},
            {"step5 (Y rank2)", 0.024183808080808094, 11.517127454424172}},
           0.29242659752815603, 7682494708231039611ull,
           21713224039304985ull},
          // coarse constant, fine recompute
          {{{"step1 (X r2c fine)", 0.024399838383838978, 11.415157576801025},
            {"step2 (Z rank1)", 0.024143808080808092, 11.536208334152633},
            {"step3 (Z rank2)", 0.024183808080808094, 11.517127454424172},
            {"step4 (Y rank1)", 0.024143808080808092, 11.536208334152633},
            {"step5 (Y rank2)", 0.024183808080808094, 11.517127454424172}},
           0.29214698136653988, 13696075196728330020ull,
           21713224039304985ull},
          // coarse texture, fine registers
          {{{"step1 (X r2c fine)", 0.024399838383838978, 11.415157576801025},
            {"step2 (Z rank1)", 0.024524166150477318, 11.357287268850891},
            {"step3 (Z rank2)", 0.024183808080808094, 11.517127454424172},
            {"step4 (Y rank1)", 0.024524166150477318, 11.357287268850891},
            {"step5 (Y rank2)", 0.024183808080808094, 11.517127454424172}},
           0.29290769750587831, 8531556624365596888ull,
           21713224039304985ull},
          // coarse recompute, fine constant
          {{{"step1 (X r2c fine)", 0.024399838383838978, 11.415157576801025},
            {"step2 (Z rank1)", 0.026060912457912457, 10.687576670610204},
            {"step3 (Z rank2)", 0.024183808080808094, 11.517127454424172},
            {"step4 (Y rank1)", 0.026060912457912457, 10.687576670610204},
            {"step5 (Y rank2)", 0.024183808080808094, 11.517127454424172}},
           0.29598119012074864, 9060129511475196058ull,
           21713224039304985ull}
      }});
}

TEST(KernelPins, Real3DInverse) {
  pin_3d<float, RealFft3DT>(sim::geforce_8800_gtx(), Direction::Inverse,
                            real_input<float>(6),
      {{
          // coarse registers, fine texture
          {{{"step1 (Z rank1)", 0.024143808080808092, 11.536208334152633},
            {"step2 (Z rank2)", 0.024183808080808094, 11.517127454424172},
            {"step3 (Y rank1)", 0.024143808080808092, 11.536208334152633},
            {"step4 (Y rank2)", 0.024183808080808094, 11.517127454424172},
            {"step5 (X c2r fine)", 0.025156303030303653, 11.071897156926479}},
           0.29290344601300461, 18437514636088007811ull,
           8544336768532611042ull},
          // coarse constant, fine recompute
          {{{"step1 (Z rank1)", 0.024143808080808092, 11.536208334152633},
            {"step2 (Z rank2)", 0.024183808080808094, 11.517127454424172},
            {"step3 (Y rank1)", 0.024143808080808092, 11.536208334152633},
            {"step4 (Y rank2)", 0.024183808080808094, 11.517127454424172},
            {"step5 (X c2r fine)", 0.024888686868687487, 11.190947978473574}},
           0.29263582985138847, 17468293194783985124ull,
           8544336768532611042ull},
          // coarse texture, fine registers
          {{{"step1 (Z rank1)", 0.024524166150477318, 11.357287268850891},
            {"step2 (Z rank2)", 0.024183808080808094, 11.517127454424172},
            {"step3 (Y rank1)", 0.024524166150477318, 11.357287268850891},
            {"step4 (Y rank2)", 0.024183808080808094, 11.517127454424172},
            {"step5 (X c2r fine)", 0.024888686868687487, 11.190947978473574}},
           0.29339654599072684, 16812314764521502945ull,
           8544336768532611042ull},
          // coarse recompute, fine constant
          {{{"step1 (Z rank1)", 0.026060912457912457, 10.687576670610204},
            {"step2 (Z rank2)", 0.024183808080808094, 11.517127454424172},
            {"step3 (Y rank1)", 0.026060912457912457, 10.687576670610204},
            {"step4 (Y rank2)", 0.024183808080808094, 11.517127454424172},
            {"step5 (X c2r fine)", 0.024888686868687487, 11.190947978473574}},
           0.29647003860559717, 9237793877830759781ull,
           8544336768532611042ull}
      }});
}

TEST(KernelPins, Real3DDoubleForward) {
  pin_3d<double, RealFft3DT>(sim::geforce_gtx_280(), Direction::Forward,
                             real_input<double>(7),
      {{
          // coarse registers, fine texture
          {{{"step1 (X r2c fine)", 0.043411979881115677, 12.831849676644689},
            {"step2 (Z rank1)", 0.033805212620027433, 16.47840545366012},
            {"step3 (Z rank2)", 0.025846635934776853, 21.552359905007087},
            {"step4 (Y rank1)", 0.033805212620027433, 16.47840545366012},
            {"step5 (Y rank2)", 0.025846635934776853, 21.552359905007087}},
           0.34800023539528269, 1877405705888521074ull,
           8949861206235334320ull},
          // coarse constant, fine recompute
          {{{"step1 (X r2c fine)", 0.071505258344764497, 7.7904200739215526},
            {"step2 (Z rank1)", 0.034053955189757651, 16.358041140770183},
            {"step3 (Z rank2)", 0.025846635934776853, 21.552359905007087},
            {"step4 (Y rank1)", 0.034053955189757651, 16.358041140770183},
            {"step5 (Y rank2)", 0.025846635934776853, 21.552359905007087}},
           0.37659099899839193, 12392503065456374413ull,
           8949861206235334320ull},
          // coarse texture, fine registers
          {{{"step1 (X r2c fine)", 0.043411979881115677, 12.831849676644689},
            {"step2 (Z rank1)", 0.033805212620027433, 16.47840545366012},
            {"step3 (Z rank2)", 0.025846635934776853, 21.552359905007087},
            {"step4 (Y rank1)", 0.033805212620027433, 16.47840545366012},
            {"step5 (Y rank2)", 0.025846635934776853, 21.552359905007087}},
           0.34800023539528269, 8518872487218643244ull,
           8949861206235334320ull},
          // coarse recompute, fine constant
          {{{"step1 (X r2c fine)", 0.04704069501600365, 11.842001905169232},
            {"step2 (Z rank1)", 0.045744855967078182, 12.177456639078807},
            {"step3 (Z rank2)", 0.025846635934776853, 21.552359905007087},
            {"step4 (Y rank1)", 0.045744855967078182, 12.177456639078807},
            {"step5 (Y rank2)", 0.025846635934776853, 21.552359905007087}},
           0.37550823722427212, 11132194530346448443ull,
           8949861206235334320ull}
      }});
}

TEST(KernelPins, Real3DDoubleInverse) {
  pin_3d<double, RealFft3DT>(sim::geforce_gtx_280(), Direction::Inverse,
                             real_input<double>(8),
      {{
          // coarse registers, fine texture
          {{{"step1 (Z rank1)", 0.033805212620027433, 16.47840545366012},
            {"step2 (Z rank2)", 0.025846635934776853, 21.552359905007087},
            {"step3 (Y rank1)", 0.033805212620027433, 16.47840545366012},
            {"step4 (Y rank2)", 0.025846635934776853, 21.552359905007087},
            {"step5 (X c2r fine)", 0.044684956561499768, 12.466298344350532}},
           0.34927321207566681, 8455325749130807269ull,
           14465311111177439967ull},
          // coarse constant, fine recompute
          {{{"step1 (Z rank1)", 0.034053955189757651, 16.358041140770183},
            {"step2 (Z rank2)", 0.025846635934776853, 21.552359905007087},
            {"step3 (Y rank1)", 0.034053955189757651, 16.358041140770183},
            {"step4 (Y rank2)", 0.025846635934776853, 21.552359905007087},
            {"step5 (X c2r fine)", 0.072778235025148602, 7.6541564907078143}},
           0.377863975678776, 8841665305929418521ull,
           14465311111177439967ull},
          // coarse texture, fine registers
          {{{"step1 (Z rank1)", 0.033805212620027433, 16.47840545366012},
            {"step2 (Z rank2)", 0.025846635934776853, 21.552359905007087},
            {"step3 (Y rank1)", 0.033805212620027433, 16.47840545366012},
            {"step4 (Y rank2)", 0.025846635934776853, 21.552359905007087},
            {"step5 (X c2r fine)", 0.044684956561499768, 12.466298344350532}},
           0.34927321207566681, 10052817602094326017ull,
           14465311111177439967ull},
          // coarse recompute, fine constant
          {{{"step1 (Z rank1)", 0.045744855967078182, 12.177456639078807},
            {"step2 (Z rank2)", 0.025846635934776853, 21.552359905007087},
            {"step3 (Y rank1)", 0.045744855967078182, 12.177456639078807},
            {"step4 (Y rank2)", 0.025846635934776853, 21.552359905007087},
            {"step5 (X c2r fine)", 0.048313671696387742, 11.529986863773164}},
           0.37678121390465624, 9526700786816167775ull,
           14465311111177439967ull}
      }});
}

// ---- Bandwidth2D ----

void pin_2d(Direction dir, std::uint64_t seed,
            const std::array<Pin, 4>& want) {
  const Shape2 shape{64, 32};
  const auto input = random_complex<float>(shape.nx * shape.ny, seed);
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(case_name(i));
    Device dev(sim::geforce_8800_gtx());
    BandwidthFft2D plan(dev, shape, dir, sources(i));
    expect_pin(run_device<float>(plan, dev, input), want[i]);
  }
}

TEST(KernelPins, Bandwidth2DForward) {
  pin_2d(Direction::Forward, 9,
         {{
             // coarse registers, fine texture
             {{{"Y rank1", 0.010447444444444445, 3.136460803811671},
               {"Y rank2", 0.010447444444444445, 3.136460803811671},
               {"X fine", 0.011739917695473249, 2.7911609646662936}},
              0.12360782235656496, 13938257057436990345ull,
              14820810839049620169ull},
             // coarse constant, fine recompute
             {{{"Y rank1", 0.010447444444444445, 3.136460803811671},
               {"Y rank2", 0.010447444444444445, 3.136460803811671},
               {"X fine", 0.012451028806584361, 2.6317503966155473}},
              0.12431893346767607, 18162976598646376368ull,
              14820810839049620169ull},
             // coarse texture, fine registers
             {{{"Y rank1", 0.010467646464646464, 3.1304075955059214},
               {"Y rank2", 0.010447444444444445, 3.136460803811671},
               {"X fine", 0.011739917695473249, 2.7911609646662936}},
              0.12362802437676697, 12167086210920261444ull,
              14820810839049620169ull},
             // coarse recompute, fine constant
             {{{"Y rank1", 0.010681481481481481, 3.0677392510402219},
               {"Y rank2", 0.010447444444444445, 3.136460803811671},
               {"X fine", 0.011947325102880659, 2.7427059796087074}},
              0.12404926680100939, 12841621061469968057ull,
              14820810839049620169ull}
         }});
}

TEST(KernelPins, Bandwidth2DInverse) {
  pin_2d(Direction::Inverse, 10,
         {{
             // coarse registers, fine texture
             {{{"Y rank1", 0.010447444444444445, 3.136460803811671},
               {"Y rank2", 0.010447444444444445, 3.136460803811671},
               {"X fine", 0.011739917695473249, 2.7911609646662936}},
              0.12360782235656496, 13938257057436990345ull,
              1144338493569275658ull},
             // coarse constant, fine recompute
             {{{"Y rank1", 0.010447444444444445, 3.136460803811671},
               {"Y rank2", 0.010447444444444445, 3.136460803811671},
               {"X fine", 0.012451028806584361, 2.6317503966155473}},
              0.12431893346767607, 18162976598646376368ull,
              1144338493569275658ull},
             // coarse texture, fine registers
             {{{"Y rank1", 0.010467646464646464, 3.1304075955059214},
               {"Y rank2", 0.010447444444444445, 3.136460803811671},
               {"X fine", 0.011739917695473249, 2.7911609646662936}},
              0.12362802437676697, 12167086210920261444ull,
              1144338493569275658ull},
             // coarse recompute, fine constant
             {{{"Y rank1", 0.010681481481481481, 3.0677392510402219},
               {"Y rank2", 0.010447444444444445, 3.136460803811671},
               {"X fine", 0.011947325102880659, 2.7427059796087074}},
              0.12404926680100939, 12841621061469968057ull,
              1144338493569275658ull}
         }});
}

// ---- Argmax (the convolution's confined path) ----

struct ArgmaxPin {
  Row launch;  ///< the argmax launch: name, total ms, achieved GB/s
  double elapsed_ms{};
  std::uint64_t history_hash{};
  std::size_t index{};
  float score{};
};

std::string to_cpp(const ArgmaxPin& p) {
  std::string s = "{";
  put_row(s, p.launch);
  put(s, ", %.17g, ", p.elapsed_ms);
  put(s, "%lluull, ", static_cast<unsigned long long>(p.history_hash));
  put(s, "%zuu, ", p.index);
  put(s, "%.9gf}", p.score);
  return s;
}

ArgmaxPin observe(const Device& dev, const BestMatch& best) {
  const auto& l = dev.history().back();
  return {{l.name, l.total_ms, l.achieved_gbs},
          dev.elapsed_ms(),
          history_hash(dev),
          best.index,
          best.score};
}

void expect_argmax(const ArgmaxPin& got, const ArgmaxPin& want) {
  SCOPED_TRACE("observed pin: " + to_cpp(got));
  expect_row(got.launch, want.launch, 0);
  EXPECT_EQ(got.elapsed_ms, want.elapsed_ms);
  EXPECT_EQ(got.history_hash, want.history_hash);
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got.score),
            std::bit_cast<std::uint32_t>(want.score));
}

TEST(KernelPins, BestTranslation) {
  Device dev(sim::geforce_8800_gtx());
  Convolution3D conv(dev, cube(kN));
  conv.set_filter(random_complex<float>(kN * kN * kN, 11));
  const BestMatch best =
      conv.best_translation(random_complex<float>(kN * kN * kN, 12));
  expect_argmax(observe(dev, best),
                {{"argmax_real", 0.013576303030303046, 19.443290224946296},
                 0.66166083839933865, 12831916661128085013ull, 13605u,
                 345.760437f});
}

TEST(KernelPins, BestTranslationReal) {
  Device dev(sim::geforce_8800_gtx());
  Convolution3D conv(dev, cube(kN), Layout::RealHalfSpectrum);
  std::vector<float> filter(kN * kN * kN);
  std::vector<float> signal(kN * kN * kN);
  SplitMix64 rng(13);
  for (auto& x : filter) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& x : signal) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  conv.set_filter_real(filter);
  const BestMatch best = conv.best_translation_real(signal);
  expect_argmax(
      observe(dev, best),
      {{"argmax_packed_real", 0.011871535353535351, 11.194508211646228},
       0.63208323000579958, 5428791425369944356ull, 27229u, 245.512772f});
}

}  // namespace
}  // namespace repro::gpufft
