// The coarse rank-1/rank-2 kernels: functional correctness of one full
// axis transform (rank1 + rank2 must compose into an n-point FFT) and the
// access-pattern properties the paper engineers for.
#include "gpufft/rank_kernels.h"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "common/metrics.h"
#include "common/rng.h"
#include "fft/dft_ref.h"

namespace repro::gpufft {
namespace {

/// Apply rank1 then rank2 for one axis of length n = f1*f2 over a buffer
/// shaped (nx, f1, f2) with the axis as digits (dim1=low, dim2=high), and
/// return the transformed volume in natural order. This mirrors steps 1+2
/// of the plan with the remaining dims collapsed into (a=f1, b=f2, c=1)...
/// Here we use the exact plan shapes with dummy extents of 1.
std::vector<cxf> transform_axis_via_ranks(std::span<const cxf> input,
                                          std::size_t nx, std::size_t n,
                                          Direction dir,
                                          TwiddleSource twiddles) {
  const AxisSplit split = split_axis(n);
  const std::size_t f1 = split.f1;
  const std::size_t f2 = split.f2;

  Device dev(sim::geforce_8800_gt());
  auto v = dev.alloc<cxf>(nx * n);
  auto w = dev.alloc<cxf>(nx * n);
  auto twd = dev.alloc<cxf>(n);
  const auto roots = make_roots<float>(n, dir);
  dev.h2d(twd, std::span<const cxf>(roots));
  dev.h2d(v, input);

  RankKernelParams p;
  p.dir = dir;
  p.twiddles = twiddles;
  p.grid_blocks = 8;
  p.threads_per_block = 64;

  // Treat the volume as (nx, f1, 1, 1, f2): transform along dim 4.
  p.in_shape = Shape5{{nx, f1, 1, 1, f2}};
  // Rank1 twiddle digit c must be the low digit Z1: our plan always has the
  // low digit in dim 3 ('c') when the high digit is in dim 4. Rearrange:
  p.in_shape = Shape5{{nx, 1, 1, f1, f2}};
  RankKernel k1(v, w, p, /*rank1=*/true, n, &twd);
  dev.launch(k1);

  // After rank1: (nx, f2, 1, 1, f1): transform along dim 4 (the low digit).
  p.in_shape = Shape5{{nx, f2, 1, 1, f1}};
  RankKernel k2(w, v, p, /*rank1=*/false);
  dev.launch(k2);

  // After rank2: (nx, f2, f1, 1, 1) with k = K2 + f2*K1 natural.
  std::vector<cxf> out(nx * n);
  dev.d2h(std::span<cxf>(out), v);
  return out;
}

class RankCompose
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(RankCompose, TwoRanksEqualFullFft) {
  const std::size_t n = std::get<0>(GetParam());
  const Direction dir = std::get<1>(GetParam()) == 0 ? Direction::Forward
                                                     : Direction::Inverse;
  const std::size_t nx = 64;
  const auto input = random_complex<float>(nx * n, n * 7);

  const auto out =
      transform_axis_via_ranks(input, nx, n, dir, TwiddleSource::Registers);

  // Reference: n-point DFT along the strided axis for every x.
  std::vector<cxf> ref(nx * n);
  std::vector<cxf> line(n);
  for (std::size_t x = 0; x < nx; ++x) {
    for (std::size_t e = 0; e < n; ++e) line[e] = input[x + nx * e];
    auto t = fft::dft_1d<float>(std::span<const cxf>(line), dir);
    for (std::size_t e = 0; e < n; ++e) ref[x + nx * e] = t[e];
  }
  EXPECT_LT(rel_l2_error<float>(out, ref), fft_error_bound<float>(n));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDirections, RankCompose,
    ::testing::Combine(::testing::Values(16, 32, 64, 128, 256),
                       ::testing::Values(0, 1)));

TEST(RankKernels, TwiddleSourcesAgree) {
  const std::size_t n = 256;
  const std::size_t nx = 32;
  const auto input = random_complex<float>(nx * n, 3);
  const auto base = transform_axis_via_ranks(input, nx, n,
                                             Direction::Forward,
                                             TwiddleSource::Registers);
  for (TwiddleSource tw : {TwiddleSource::Constant, TwiddleSource::Texture,
                           TwiddleSource::Recompute}) {
    const auto alt =
        transform_axis_via_ranks(input, nx, n, Direction::Forward, tw);
    EXPECT_LT(rel_l2_error<float>(alt, base), 1e-5);
  }
}

TEST(RankKernels, ReadsCoalesced) {
  // X-innermost work order must make every global slot coalesce.
  Device dev(sim::geforce_8800_gtx());
  const Shape5 shape{{256, 4, 4, 4, 16}};
  auto v = dev.alloc<cxf>(shape.volume());
  auto w = dev.alloc<cxf>(shape.volume());
  RankKernelParams p;
  p.in_shape = shape;
  p.grid_blocks = default_grid_blocks(dev.spec());
  RankKernel k(v, w, p, /*rank1=*/true, 256);
  const auto r = dev.launch(k);
  EXPECT_GT(r.coalesced_fraction, 0.99);
  EXPECT_EQ(r.dram_bytes, 2ull * shape.volume() * sizeof(cxf));
}

TEST(RankKernels, OccupancySustains128ThreadsPerSM) {
  // Section 3.1: 51-52 registers leave 128 threads per SM.
  Device dev(sim::geforce_8800_gtx());
  const Shape5 shape{{64, 2, 2, 2, 16}};
  auto v = dev.alloc<cxf>(shape.volume());
  auto w = dev.alloc<cxf>(shape.volume());
  RankKernelParams p;
  p.in_shape = shape;
  RankKernel k(v, w, p, /*rank1=*/true, 256);
  const auto r = dev.launch(k);
  EXPECT_EQ(r.occupancy.active_threads, 128);
}

TEST(RankKernels, Rank2PreservesEnergy) {
  // Unitary-up-to-scale: ||out||^2 == L * ||in||^2 for the pure rank-2 FFT.
  Device dev(sim::geforce_8800_gt());
  const Shape5 shape{{32, 4, 1, 2, 16}};
  auto v = dev.alloc<cxf>(shape.volume());
  auto w = dev.alloc<cxf>(shape.volume());
  const auto input = random_complex<float>(shape.volume(), 11);
  dev.h2d(v, std::span<const cxf>(input));
  RankKernelParams p;
  p.in_shape = shape;
  p.grid_blocks = 4;
  RankKernel k(v, w, p, /*rank1=*/false);
  dev.launch(k);
  std::vector<cxf> out(shape.volume());
  dev.d2h(std::span<cxf>(out), w);
  double ein = 0.0;
  double eout = 0.0;
  for (const auto& z : input) ein += z.norm2();
  for (const auto& z : out) eout += z.norm2();
  EXPECT_NEAR(eout / (16.0 * ein), 1.0, 1e-4);
}

TEST(RankKernel, WalkIsTable2sPairing) {
  // Table 2: both ranks read pattern D (the digit in dim 4 of the input
  // view); rank 1 writes pattern A (digit in dim 1 of the output view),
  // rank 2 pattern B (digit in dim 2). RankWalk is what the kernel issues
  // and the tuner prices, so check it on every coarse view: the paper's
  // 256^3 at radix 16, a non-cube at radix 8 and the real plan's 1-wide
  // Nyquist tail pencils.
  struct Volume {
    Shape3 shape;
    unsigned radix;
  };
  for (const auto& [shape, radix] :
       {Volume{cube(256), 16}, Volume{Shape3{64, 16, 8}, 8},
        Volume{Shape3{1, 256, 256}, 16}}) {
    const auto steps = coarse_rank_steps(shape, split_axis(shape.ny, radix),
                                         split_axis(shape.nz, radix));
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const CoarseRankStep& st = steps[i];
      SCOPED_TRACE(std::to_string(shape.nx) + "x" + std::to_string(shape.ny) +
                   "x" + std::to_string(shape.nz) + " " + st.name);
      const Shape5& in = st.in_shape;
      const auto& e = in.extent;
      const std::size_t L = e[4];
      const Shape5 out = st.rank1 ? Shape5{{e[0], L, e[1], e[2], e[3]}}
                                  : Shape5{{e[0], e[1], L, e[2], e[3]}};
      if (i + 1 < steps.size()) {
        EXPECT_EQ(out.extent, steps[i + 1].in_shape.extent)
            << "each step's output view is the next step's input view";
      }
      const RankWalk walk(in, st.rank1);
      ASSERT_EQ(walk.items * walk.L, in.volume());
      std::size_t mismatches = 0;
      std::string first;
      std::size_t w = 0;  // the kernel's item index, X innermost
      for (std::size_t c = 0; c < e[3]; ++c) {
        for (std::size_t b = 0; b < e[2]; ++b) {
          for (std::size_t a = 0; a < e[1]; ++a) {
            for (std::size_t x = 0; x < e[0]; ++x, ++w) {
              for (std::size_t q = 0; q < L; ++q) {
                const std::size_t want_store =
                    st.rank1 ? out.at(x, q, a, b, c) : out.at(x, a, q, b, c);
                if (walk.load_base(w) + walk.load_stride * q ==
                        in.at(x, a, b, c, q) &&
                    walk.store_base(w) + walk.store_stride * q ==
                        want_store) {
                  continue;
                }
                if (mismatches++ == 0) {
                  first = "item " + std::to_string(w) + " point " +
                          std::to_string(q);
                }
              }
            }
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << "first at " << first;
    }
  }
}

/// The coordinates of a view whose item coordinates are `r` and whose
/// digit sits at dim `dim` (its value is set per point).
std::array<std::size_t, 5> with_digit(const std::array<std::size_t, 4>& r,
                                      std::size_t dim) {
  std::array<std::size_t, 5> c{};
  for (std::size_t d = 0, k = 0; d < 5; ++d) c[d] = d == dim ? 0 : r[k++];
  return c;
}

std::size_t at(const Shape5& view, const std::array<std::size_t, 5>& c) {
  return view.at(c[0], c[1], c[2], c[3], c[4]);
}

TEST(RankWalk, EveryDimPairIsShape5At) {
  // The walk generalized to every (load dim, store dim) in {1..4}^2: the
  // digit at the load dim of the input view lands at the store dim of the
  // output view, which is the item view (the input without the digit's
  // dim, X fastest) with the digit inserted there. Checked on Table 2's
  // V(256,16,16,16,16) (the 16 pattern copies) and on a view whose outer
  // extents all differ, where the store stride is not the input's.
  for (const Shape5& in :
       {Shape5{{256, 16, 16, 16, 16}}, Shape5{{6, 3, 5, 2, 7}}}) {
    for (std::size_t load_dim = 1; load_dim <= 4; ++load_dim) {
      for (std::size_t store_dim = 1; store_dim <= 4; ++store_dim) {
        SCOPED_TRACE("view " + std::to_string(in.extent[0]) + "x" +
                     std::to_string(in.extent[1]) + " load dim " +
                     std::to_string(load_dim) + " store dim " +
                     std::to_string(store_dim));
        const std::size_t L = in.extent[load_dim];
        std::array<std::size_t, 4> item{};  // the item view's extents
        for (std::size_t d = 0, k = 0; d < 5; ++d) {
          if (d != load_dim) item[k++] = in.extent[d];
        }
        Shape5 out;
        for (std::size_t d = 0, k = 0; d < 5; ++d) {
          out.extent[d] = d == store_dim ? L : item[k++];
        }
        const RankWalk walk(in, load_dim, store_dim);
        ASSERT_EQ(walk.items * walk.L, in.volume());
        ASSERT_EQ(walk.L, L);
        std::size_t mismatches = 0;
        std::string first;
        std::size_t w = 0;  // the kernels' item index, X innermost
        std::array<std::size_t, 4> r{};
        for (r[3] = 0; r[3] < item[3]; ++r[3]) {
          for (r[2] = 0; r[2] < item[2]; ++r[2]) {
            for (r[1] = 0; r[1] < item[1]; ++r[1]) {
              for (r[0] = 0; r[0] < item[0]; ++r[0], ++w) {
                const std::size_t load0 = walk.load_base(w);
                const std::size_t store0 = walk.store_base(w);
                auto ic = with_digit(r, load_dim);
                auto oc = with_digit(r, store_dim);
                for (std::size_t q = 0; q < L; ++q) {
                  ic[load_dim] = q;
                  oc[store_dim] = q;
                  if (load0 + walk.load_stride * q == at(in, ic) &&
                      store0 + walk.store_stride * q == at(out, oc)) {
                    continue;
                  }
                  if (mismatches++ == 0) {
                    first = "item " + std::to_string(w) + " point " +
                            std::to_string(q);
                  }
                }
              }
            }
          }
        }
        EXPECT_EQ(mismatches, 0u) << "first at " << first;
      }
    }
  }
}

}  // namespace
}  // namespace repro::gpufft
