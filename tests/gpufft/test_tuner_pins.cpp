// Golden pins on the tuner's whole cost landscape. For each description
// the test pins tune_plan's best config, the bits of its model_ms and the
// evaluated count, plus an FNV-1a hash over the bits of model_plan_ms for a
// covering candidate list: every coarse x fine twiddle source, every block
// size and blocks-per-SM value, both coarse radices, every pad, both row
// pitches and every slab depth. A change to a losing candidate's cost
// therefore shows here even when the winner stays put. The descriptions
// cover every kind the tuner models: the five-step plan in both
// precisions, the real forward and inverse plans, a 7-smooth and a
// Bluestein Mixed3D shape, pow2 and mixed-radix out-of-core slabs, complex
// and real sharded cubes and the dealt batch. The bits of
// mixed_pitch_amplification are pinned too.
//
// The cost model is deterministic, so a refactor of the tuner or of the
// kernels' launch configs must leave every value bit-identical. On a
// mismatch the test prints the observed pin as a C++ initializer.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "gpufft/planner.h"

namespace repro::gpufft {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

/// 24 candidates that between them take every value of every knob. The
/// strides are chosen so the first twelve already pair every coarse with
/// every fine twiddle source and every block size with every blocks-per-SM
/// value; the radix flips halfway, and the slab depth cycles against the
/// pitch.
std::vector<TuneConfig> covering_candidates() {
  constexpr std::array<TwiddleSource, 4> kCoarse{
      TwiddleSource::Registers, TwiddleSource::Constant,
      TwiddleSource::Texture, TwiddleSource::Recompute};
  constexpr std::array<TwiddleSource, 3> kFine{
      TwiddleSource::Texture, TwiddleSource::Constant,
      TwiddleSource::Recompute};
  constexpr std::array<unsigned, 3> kTpb{64, 128, 256};
  constexpr std::array<unsigned, 4> kBps{1, 2, 3, 4};
  constexpr std::array<unsigned, 2> kRadix{16, 8};
  constexpr std::array<unsigned, 3> kPad{0, 8, 16};
  constexpr std::array<std::size_t, 6> kSlab{0, 2, 4, 8, 16, 32};
  constexpr std::array<PitchMode, 2> kPitch{PitchMode::Dense,
                                            PitchMode::Padded};
  std::vector<TuneConfig> out;
  for (std::size_t i = 0; i < 24; ++i) {
    TuneConfig c;
    c.coarse_twiddles = kCoarse[i % 4];
    c.fine_twiddles = kFine[(i / 4) % 3];
    c.threads_per_block = kTpb[i % 3];
    c.blocks_per_sm = kBps[(i / 3) % 4];
    c.coarse_radix = kRadix[(i / 12) % 2];
    c.shmem_pad_words = kPad[(i / 2) % 3];
    c.slab_depth = kSlab[i % 6];
    c.pitch = kPitch[(i / 6) % 2];
    out.push_back(c);
  }
  return out;
}

struct LandscapePin {
  std::string best;
  std::uint64_t model_ms_bits{};
  std::size_t evaluated{};
  std::uint64_t landscape_hash{};
};

void expect_landscape(const sim::GpuSpec& spec, const PlanDesc& desc,
                      const LandscapePin& want) {
  const TuneResult r = tune_plan(spec, desc);
  std::uint64_t h = 1469598103934665603ull;
  for (const TuneConfig& c : covering_candidates()) {
    h = fnv1a(h, bits(model_plan_ms(spec, desc, c)));
  }
  const LandscapePin got{r.best.to_string(), bits(r.model_ms), r.evaluated,
                         h};
  SCOPED_TRACE("observed pin: {\"" + got.best + "\", " +
               std::to_string(got.model_ms_bits) + "ull, " +
               std::to_string(got.evaluated) + "u, " +
               std::to_string(got.landscape_hash) + "ull}");
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.model_ms_bits, want.model_ms_bits);
  EXPECT_EQ(got.evaluated, want.evaluated);
  EXPECT_EQ(got.landscape_hash, want.landscape_hash);
}

TEST(TunerPins, Bandwidth3DF32) {
  expect_landscape(sim::geforce_8800_gtx(),
                   PlanDesc::bandwidth3d(Shape3{512, 8, 16},
                                         Direction::Forward),
                   {"ctw=registers ftw=texture grid=0 bps=2 tpb=64 radix=16 "
                    "pad=16 slab=0 pitch=dense",
                    4594181359641226793ull, 864u, 13137288162128385479ull});
}

TEST(TunerPins, Bandwidth3DF64) {
  expect_landscape(sim::geforce_gtx_280(),
                   PlanDesc::bandwidth3d(Shape3{64, 16, 8},
                                         Direction::Inverse, Precision::F64),
                   {"ctw=registers ftw=texture grid=0 bps=2 tpb=64 radix=16 "
                    "pad=8 slab=0 pitch=dense",
                    4590786120186282868ull, 864u, 104257262539424107ull});
}

TEST(TunerPins, Real3DForward) {
  expect_landscape(sim::geforce_8800_gts(),
                   PlanDesc::real3d(Shape3{64, 16, 8}, Direction::Forward),
                   {"ctw=registers ftw=texture grid=0 bps=3 tpb=64 radix=16 "
                    "pad=16 slab=0 pitch=dense",
                    4591673203276899026ull, 864u, 14708211948234806923ull});
}

TEST(TunerPins, Real3DInverse) {
  expect_landscape(sim::geforce_gtx_280(),
                   PlanDesc::real3d(Shape3{1024, 8, 4}, Direction::Inverse,
                                    Precision::F64),
                   {"ctw=registers ftw=texture grid=0 bps=1 tpb=64 radix=16 "
                    "pad=8 slab=0 pitch=dense",
                    4596390135266075456ull, 864u, 5852703918317384483ull});
}

TEST(TunerPins, Mixed3DSevenSmooth) {
  expect_landscape(sim::geforce_8800_gtx(),
                   PlanDesc::mixed3d(Shape3{60, 28, 12}, Direction::Forward),
                   {"ctw=registers ftw=texture grid=0 bps=2 tpb=64 radix=16 "
                    "pad=0 slab=0 pitch=padded",
                    4588983598893333918ull, 1728u, 16423957418240000691ull});
}

TEST(TunerPins, Mixed3DBluestein) {
  expect_landscape(sim::geforce_8800_gtx(),
                   PlanDesc::mixed3d(Shape3{33, 17, 8}, Direction::Inverse),
                   {"ctw=registers ftw=texture grid=0 bps=1 tpb=64 radix=16 "
                    "pad=0 slab=0 pitch=padded",
                    4590474365568144900ull, 1728u, 3087111125639461507ull});
}

TEST(TunerPins, OutOfCorePow2Slab) {
  expect_landscape(sim::geforce_8800_gtx(),
                   PlanDesc::out_of_core(32, 4, Direction::Forward),
                   {"ctw=registers ftw=texture grid=0 bps=2 tpb=64 radix=16 "
                    "pad=0 slab=2 pitch=dense",
                    4601206910744056074ull, 5184u, 6457492104250991944ull});
}

TEST(TunerPins, OutOfCoreMixedRadixSlab) {
  expect_landscape(sim::geforce_8800_gtx(),
                   PlanDesc::out_of_core(48, 4, Direction::Inverse),
                   {"ctw=registers ftw=texture grid=0 bps=2 tpb=64 radix=16 "
                    "pad=0 slab=2 pitch=dense",
                    4606817720371613194ull, 5184u, 16441842955240811207ull});
}

TEST(TunerPins, Sharded3DComplex) {
  expect_landscape(sim::geforce_8800_gts(),
                   PlanDesc::sharded3d(32, 4, Direction::Forward),
                   {"ctw=registers ftw=texture grid=0 bps=1 tpb=64 radix=16 "
                    "pad=0 slab=32 pitch=dense",
                    4596118025771491258ull, 5184u, 17366306106832919565ull});
}

TEST(TunerPins, Sharded3DReal) {
  expect_landscape(sim::geforce_8800_gts(),
                   PlanDesc::sharded_real3d(32, 4, Direction::Inverse),
                   {"ctw=registers ftw=texture grid=0 bps=2 tpb=64 radix=16 "
                    "pad=0 slab=8 pitch=dense",
                    4598754584937485471ull, 5184u, 14593377571311152815ull});
}

TEST(TunerPins, BatchSharded3D) {
  expect_landscape(sim::geforce_8800_gt(),
                   PlanDesc::batch_sharded3d(32, 8, Direction::Forward),
                   {"ctw=registers ftw=texture grid=0 bps=2 tpb=64 radix=16 "
                    "pad=0 slab=2 pitch=dense",
                    4600299322059985557ull, 5184u, 1650263392559606223ull});
}

TEST(TunerPins, MixedPitchAmplification) {
  const auto spec = sim::geforce_8800_gtx();
  const std::array<Shape3, 2> shapes{cube(100), Shape3{33, 17, 8}};
  const std::array<std::uint64_t, 4> want{
      4614703586191570041ull, 4607726427800786376ull, 4615711963548825166ull,
      4609229509539731270ull};
  std::array<std::uint64_t, 4> got{};
  std::size_t i = 0;
  for (const Shape3& s : shapes) {
    for (const PitchMode p : {PitchMode::Dense, PitchMode::Padded}) {
      got[i++] = bits(mixed_pitch_amplification(spec, s, p));
    }
  }
  EXPECT_EQ(got, want) << "observed: {" << got[0] << "ull, " << got[1]
                       << "ull, " << got[2] << "ull, " << got[3] << "ull}";
}

}  // namespace
}  // namespace repro::gpufft
