// On-card convolution/correlation (the Section 4.4 confinement pipeline).
#include "gpufft/convolution.h"

#include <gtest/gtest.h>

#include <string>

#include "common/metrics.h"
#include "common/rng.h"

namespace repro::gpufft {
namespace {

/// Direct circular correlation: out[d] = sum_t s[t+d] * conj(f[t]).
std::vector<cxf> direct_correlation(const std::vector<cxf>& s,
                                    const std::vector<cxf>& f, Shape3 shape) {
  std::vector<cxf> out(shape.volume());
  for (std::size_t dz = 0; dz < shape.nz; ++dz) {
    for (std::size_t dy = 0; dy < shape.ny; ++dy) {
      for (std::size_t dx = 0; dx < shape.nx; ++dx) {
        cxd acc{0, 0};
        for (std::size_t z = 0; z < shape.nz; ++z) {
          for (std::size_t y = 0; y < shape.ny; ++y) {
            for (std::size_t x = 0; x < shape.nx; ++x) {
              const auto sv = s[shape.at((x + dx) % shape.nx,
                                         (y + dy) % shape.ny,
                                         (z + dz) % shape.nz)];
              const auto fv = f[shape.at(x, y, z)];
              acc += cxd{sv.re, sv.im} * cxd{fv.re, -fv.im};
            }
          }
        }
        out[shape.at(dx, dy, dz)] = {static_cast<float>(acc.re),
                                     static_cast<float>(acc.im)};
      }
    }
  }
  return out;
}

TEST(Convolution, MatchesDirectCorrelation) {
  const Shape3 shape = cube(16);
  const auto signal = random_complex<float>(shape.volume(), 1);
  const auto filter = random_complex<float>(shape.volume(), 2);

  Device dev(sim::geforce_8800_gts());
  Convolution3D conv(dev, shape);
  conv.set_filter(filter);
  const auto fast = conv.correlate(signal);
  const auto ref = direct_correlation(signal, filter, shape);
  EXPECT_LT(rel_l2_error<float>(fast, ref), 1e-3);
}

TEST(Convolution, BestTranslationFindsPlantedPeak) {
  // Plant the filter inside the signal at a known offset: correlation must
  // peak exactly there.
  const Shape3 shape = cube(32);
  const std::size_t off_x = 5;
  const std::size_t off_y = 12;
  const std::size_t off_z = 20;

  SplitMix64 rng(33);
  std::vector<cxf> filter(shape.volume());
  for (std::size_t i = 0; i < 200; ++i) {
    filter[rng.below(shape.volume())] = {1.0f, 0.0f};
  }
  std::vector<cxf> signal(shape.volume());
  for (std::size_t z = 0; z < shape.nz; ++z) {
    for (std::size_t y = 0; y < shape.ny; ++y) {
      for (std::size_t x = 0; x < shape.nx; ++x) {
        signal[shape.at((x + off_x) % shape.nx, (y + off_y) % shape.ny,
                        (z + off_z) % shape.nz)] = filter[shape.at(x, y, z)];
      }
    }
  }

  Device dev(sim::geforce_8800_gt());
  Convolution3D conv(dev, shape);
  conv.set_filter(filter);
  const BestMatch best = conv.best_translation(signal);
  EXPECT_EQ(best.index, shape.at(off_x, off_y, off_z));
}

TEST(Convolution, ConfinementMovesLessData) {
  // Section 4.4: the confined path ships the volume up once and only a
  // tiny candidate list back.
  const Shape3 shape = cube(32);
  const auto signal = random_complex<float>(shape.volume(), 3);
  const auto filter = random_complex<float>(shape.volume(), 4);

  Device dev(sim::geforce_8800_gtx());
  Convolution3D conv(dev, shape);
  conv.set_filter(filter);

  dev.reset_clock();
  conv.best_translation(signal);
  const auto d2h_confined = dev.d2h_bytes();

  dev.reset_clock();
  conv.correlate(signal);
  const auto d2h_full = dev.d2h_bytes();

  EXPECT_LT(d2h_confined, d2h_full / 100);
}

TEST(Convolution, ArgmaxMatchesHostScan) {
  const Shape3 shape = cube(16);
  const auto signal = random_complex<float>(shape.volume(), 5);
  const auto filter = random_complex<float>(shape.volume(), 6);
  Device dev(sim::geforce_8800_gt());
  Convolution3D conv(dev, shape);
  conv.set_filter(filter);
  const auto volume = conv.correlate(signal);
  const BestMatch best = conv.best_translation(signal);
  std::size_t host_best = 0;
  for (std::size_t i = 1; i < volume.size(); ++i) {
    if (volume[i].re > volume[host_best].re) host_best = i;
  }
  EXPECT_EQ(best.index, host_best);
  EXPECT_NEAR(best.score, volume[host_best].re,
              1e-3f * std::abs(volume[host_best].re) + 1e-3f);
}

TEST(Convolution, RealModeMatchesComplexMode) {
  // Real-valued grids through the r2c/c2r pipeline must score like the
  // complex pipeline (both FFT paths carry ~1e-6 relative rounding).
  const Shape3 shape = cube(32);
  SplitMix64 rng(17);
  std::vector<float> signal(shape.volume());
  std::vector<float> filter(shape.volume());
  for (auto& v : signal) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : filter) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<cxf> csignal(shape.volume());
  std::vector<cxf> cfilter(shape.volume());
  for (std::size_t i = 0; i < shape.volume(); ++i) {
    csignal[i] = {signal[i], 0.0f};
    cfilter[i] = {filter[i], 0.0f};
  }

  Device dev(sim::geforce_8800_gts());
  Convolution3D cconv(dev, shape);
  cconv.set_filter(cfilter);
  const auto cscores = cconv.correlate(csignal);

  Convolution3D rconv(dev, shape, Layout::RealHalfSpectrum);
  rconv.set_filter_real(filter);
  const auto rscores = rconv.correlate_real(signal);

  std::vector<cxf> rc(rscores.size());
  for (std::size_t i = 0; i < rscores.size(); ++i) rc[i] = {rscores[i], 0.0f};
  std::vector<cxf> cc(cscores.size());
  for (std::size_t i = 0; i < cscores.size(); ++i) cc[i] = {cscores[i].re, 0.0f};
  EXPECT_LT(rel_l2_error<float>(rc, cc), 1e-4);
}

TEST(Convolution, RealBestTranslationFindsPlantedPeak) {
  // Odd X offset on purpose: the winning score then sits in a packed
  // slot's .im half, exercising the packed argmax's index reconstruction.
  const Shape3 shape = cube(32);
  const std::size_t off_x = 7;
  const std::size_t off_y = 12;
  const std::size_t off_z = 21;

  SplitMix64 rng(34);
  std::vector<float> filter(shape.volume());
  for (std::size_t i = 0; i < 200; ++i) {
    filter[rng.below(shape.volume())] = 1.0f;
  }
  std::vector<float> signal(shape.volume());
  for (std::size_t z = 0; z < shape.nz; ++z) {
    for (std::size_t y = 0; y < shape.ny; ++y) {
      for (std::size_t x = 0; x < shape.nx; ++x) {
        signal[shape.at((x + off_x) % shape.nx, (y + off_y) % shape.ny,
                        (z + off_z) % shape.nz)] = filter[shape.at(x, y, z)];
      }
    }
  }

  Device dev(sim::geforce_8800_gt());
  Convolution3D conv(dev, shape, Layout::RealHalfSpectrum);
  conv.set_filter_real(filter);
  const BestMatch best = conv.best_translation_real(signal);
  EXPECT_EQ(best.index, shape.at(off_x, off_y, off_z));
}

TEST(Convolution, RealPackedArgmaxMatchesHostScan) {
  const Shape3 shape = cube(32);
  SplitMix64 rng(35);
  std::vector<float> signal(shape.volume());
  std::vector<float> filter(shape.volume());
  for (auto& v : signal) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : filter) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  Device dev(sim::geforce_8800_gtx());
  Convolution3D conv(dev, shape, Layout::RealHalfSpectrum);
  conv.set_filter_real(filter);
  const auto volume = conv.correlate_real(signal);
  const BestMatch best = conv.best_translation_real(signal);
  std::size_t host_best = 0;
  for (std::size_t i = 1; i < volume.size(); ++i) {
    if (volume[i] > volume[host_best]) host_best = i;
  }
  EXPECT_EQ(best.index, host_best);
  EXPECT_NEAR(best.score, volume[host_best],
              1e-3f * std::abs(volume[host_best]) + 1e-3f);
}

TEST(Convolution, LayoutGuardsEntryPoints) {
  const Shape3 shape = cube(32);
  Device dev(sim::geforce_8800_gt());
  Convolution3D cconv(dev, shape);
  Convolution3D rconv(dev, shape, Layout::RealHalfSpectrum);
  const std::vector<float> reals(shape.volume());
  const std::vector<cxf> cplx(shape.volume());
  EXPECT_THROW(cconv.set_filter_real(reals), Error);
  EXPECT_THROW(rconv.set_filter(cplx), Error);
}

TEST(Convolution, WrongSizeVolumesNameBothCounts) {
  const Shape3 shape = cube(32);
  Device dev(sim::geforce_8800_gt());
  Convolution3D cconv(dev, shape);
  Convolution3D rconv(dev, shape, Layout::RealHalfSpectrum);
  const std::vector<float> reals(100);
  const std::vector<cxf> cplx(100);
  const auto expect_named = [](const std::string& want, auto&& run) {
    try {
      run();
      ADD_FAILURE() << "a 100-element volume was taken";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(want + " 32768 elements; got 100"),
                std::string::npos)
          << msg;
    }
  };
  // The complex entry points take host volumes of the plan's size, the
  // real ones shape.volume() reals.
  const std::string complex =
      "plan[" + cconv.desc().to_string() + "] takes host volumes of";
  expect_named(complex, [&] { cconv.set_filter(cplx); });
  expect_named("real volumes take", [&] { rconv.set_filter_real(reals); });
  cconv.set_filter(std::vector<cxf>(shape.volume()));
  rconv.set_filter_real(std::vector<float>(shape.volume()));
  expect_named(complex, [&] { cconv.correlate(cplx); });
  expect_named("real volumes take", [&] { rconv.correlate_real(reals); });
}

TEST(PointwiseMultiply, ConjugateOption) {
  Device dev(sim::geforce_8800_gt());
  const std::size_t n = 1024;
  auto a = dev.alloc<cxf>(n);
  auto b = dev.alloc<cxf>(n);
  auto out = dev.alloc<cxf>(n);
  const auto va = random_complex<float>(n, 7);
  const auto vb = random_complex<float>(n, 8);
  dev.h2d(a, std::span<const cxf>(va));
  dev.h2d(b, std::span<const cxf>(vb));

  PointwiseMultiplyKernel plain(a, b, out, n, false, 8);
  dev.launch(plain);
  std::vector<cxf> r(n);
  dev.d2h(std::span<cxf>(r), out);
  for (std::size_t i = 0; i < n; i += 111) {
    const cxf expect = va[i] * vb[i];
    EXPECT_NEAR(r[i].re, expect.re, 1e-5f);
  }

  PointwiseMultiplyKernel conj(a, b, out, n, true, 8);
  dev.launch(conj);
  dev.d2h(std::span<cxf>(r), out);
  for (std::size_t i = 0; i < n; i += 111) {
    const cxf expect = va[i] * vb[i].conj();
    EXPECT_NEAR(r[i].im, expect.im, 1e-5f);
  }
}

}  // namespace
}  // namespace repro::gpufft
