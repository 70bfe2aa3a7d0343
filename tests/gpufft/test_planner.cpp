// The plan-time autotuner: Table-2 rediscovery on the paper's hardware,
// divergent winners on mutated specs, wisdom round-trips, and the
// warm-registry zero-evaluation guarantee.
#include "gpufft/planner.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/metrics.h"
#include "common/rng.h"
#include "fft/plan.h"
#include "gpufft/registry.h"

namespace repro::gpufft {
namespace {

// ---------------------------------------------------------------------------
// Table-2 rediscovery
// ---------------------------------------------------------------------------

TEST(Tuner, RediscoversTable2OnPaperHardware) {
  // The search space contains every knob of Table 2; on the cards the
  // paper tuned for, the cost model's argmin must be the published
  // configuration (the default TuneConfig).
  const auto desc = PlanDesc::bandwidth3d(cube(256), Direction::Forward);
  for (const auto& spec :
       {sim::geforce_8800_gtx(), sim::geforce_8800_gts()}) {
    const TuneResult r = tune_plan(spec, desc);
    EXPECT_EQ(r.best, TuneConfig{}) << spec.name << " picked "
                                    << r.best.to_string();
    EXPECT_DOUBLE_EQ(r.model_ms, r.default_ms);
    EXPECT_GT(r.evaluated, 500u) << "search space collapsed";
  }
}

TEST(Tuner, RediscoversDefaultForRealPlans) {
  const TuneResult r =
      tune_plan(sim::geforce_8800_gtx(),
                PlanDesc::real3d(cube(256), Direction::Forward));
  EXPECT_EQ(r.best, TuneConfig{});
}

// ---------------------------------------------------------------------------
// Mixed-radix plans: the padded-pitch layout decision
// ---------------------------------------------------------------------------

TEST(Tuner, PadsNonPow2RowsOnPaperHardware) {
  // cube(100) rows are 100 complex floats: dense, most Y/Z half-warp
  // slots start off G80's 128-byte segments and degrade to sixteen
  // 32-byte transactions. The tuner must discover that a 16-element
  // padded pitch is worth the footprint — on every paper card.
  const auto desc = PlanDesc::mixed3d(cube(100), Direction::Forward);
  for (const auto& spec :
       {sim::geforce_8800_gtx(), sim::geforce_8800_gts()}) {
    const TuneResult r = tune_plan(spec, desc);
    EXPECT_EQ(r.best.pitch, PitchMode::Padded)
        << spec.name << " picked " << r.best.to_string();
    EXPECT_LT(r.model_ms, r.default_ms);
  }
}

TEST(Tuner, ModeledDramAmplificationJustifiesThePad) {
  // Pin the signal behind the decision, not just the argmin: the modeled
  // bytes-moved / bytes-useful ratio of the pitch-sensitive Y pass.
  const auto spec = sim::geforce_8800_gtx();
  const double dense =
      mixed_pitch_amplification(spec, cube(100), PitchMode::Dense);
  const double padded =
      mixed_pitch_amplification(spec, cube(100), PitchMode::Padded);
  EXPECT_GE(dense, 2.0) << "dense non-pow2 rows must look uncoalesced";
  EXPECT_LT(padded, 1.5) << "padded rows must coalesce";
  EXPECT_GE(dense / padded, 2.0);
}

TEST(Tuner, Pow2ShapesKeepTheDensePitch) {
  // Pow2 rows are already segment-aligned; padding buys nothing, and the
  // strict-improvement margin must keep the dense default.
  const TuneResult r =
      tune_plan(sim::geforce_8800_gtx(),
                PlanDesc::mixed3d(cube(64), Direction::Forward));
  EXPECT_EQ(r.best.pitch, PitchMode::Dense)
      << "picked " << r.best.to_string();
  const auto spec = sim::geforce_8800_gtx();
  EXPECT_LT(mixed_pitch_amplification(spec, cube(64), PitchMode::Dense),
            1.5);
}

TEST(Tuner, PitchKnobDoesNotWidenOtherKindsSearch) {
  // The pitch dimension exists only for Mixed3D: the five-step search
  // space (and therefore its wisdom) is exactly what it was before.
  const TuneResult mixed = tune_plan(
      sim::geforce_8800_gtx(),
      PlanDesc::mixed3d(cube(100), Direction::Forward));
  const TuneResult five = tune_plan(
      sim::geforce_8800_gtx(),
      PlanDesc::bandwidth3d(cube(256), Direction::Forward));
  EXPECT_EQ(mixed.evaluated, 2u * five.evaluated)
      << "mixed plans score both layouts per candidate";
}

TEST(Tuner, ModelsMixedAndNonPow2StreamedPlans) {
  const auto spec = sim::geforce_8800_gtx();
  EXPECT_TRUE(std::isfinite(model_plan_ms(
      spec, PlanDesc::mixed3d(Shape3{33, 8, 8}, Direction::Forward),
      TuneConfig{})));
  // A non-pow2 out-of-core volume is modeled through the mixed slab path.
  EXPECT_TRUE(std::isfinite(model_plan_ms(
      spec, PlanDesc::out_of_core(96, 4, Direction::Forward),
      TuneConfig{})));
}

// ---------------------------------------------------------------------------
// Divergence on mutated specs
// ---------------------------------------------------------------------------

TEST(Tuner, SmallRegisterFileFlipsCoarseTwiddlesToConstant) {
  // Three-quarters of the register file: the rank kernels' register-held
  // twiddle digits (52 regs) no longer fit two blocks per SM, so the
  // memory throttle halves bandwidth; a constant-memory table (44 regs)
  // keeps two blocks resident and wins despite its broadcast cost.
  auto spec = sim::geforce_8800_gtx();
  spec.registers_per_sm = 6144;
  const TuneResult r = tune_plan(
      spec, PlanDesc::bandwidth3d(cube(256), Direction::Forward));
  EXPECT_EQ(r.best.coarse_twiddles, TwiddleSource::Constant)
      << r.best.to_string();
  EXPECT_LT(r.model_ms, r.default_ms * 0.95)
      << "the flip must be a real win, not a tie-break";
}

TEST(Tuner, EightBankFabricRetunesThePad) {
  // On an 8-bank shared-memory fabric the one-word-per-16 pad no longer
  // spreads the butterfly strides; the tuner moves to a one-word-per-8
  // pad (and re-balances residency) instead of keeping Table 2.
  auto spec = sim::geforce_8800_gtx();
  spec.shmem_banks = 8;
  const TuneResult r = tune_plan(
      spec, PlanDesc::bandwidth3d(cube(256), Direction::Forward));
  EXPECT_NE(r.best, TuneConfig{});
  EXPECT_EQ(r.best.shmem_pad_words, 8u) << r.best.to_string();
  EXPECT_LT(r.model_ms, r.default_ms);
}

TEST(Tuner, SmallDeviceMemoryRepairsTheSlabDepth) {
  // A 256 MB card cannot hold the 512^3 plan's depth-8 slabs (the default
  // keeps the description's splits), so the default scores infinite and
  // the tuner selects the first depth whose working set fits.
  auto spec = sim::geforce_8800_gtx();
  spec.device_memory_bytes = 256ull << 20;
  const TuneResult r = tune_plan(
      spec, PlanDesc::out_of_core(512, 8, Direction::Forward));
  EXPECT_TRUE(std::isinf(r.default_ms));
  EXPECT_TRUE(std::isfinite(r.model_ms));
  EXPECT_EQ(r.best.slab_depth, 16u) << r.best.to_string();
}

TEST(Tuner, DealtPlansSearchTheSlabDepthLikeOutOfCore) {
  // A dealt member runs the single-card out-of-core schedule and the model
  // prices it as one, so the search must cover its slab depth too.
  const auto spec = sim::geforce_8800_gts();
  const TuneResult oc =
      tune_plan(spec, PlanDesc::out_of_core(32, 4, Direction::Forward));
  const TuneResult dealt =
      tune_plan(spec, PlanDesc::batch_sharded3d(32, 4, Direction::Forward));
  EXPECT_EQ(dealt.best, oc.best) << dealt.best.to_string();
  EXPECT_NE(oc.best.slab_depth, 0u) << oc.best.to_string();
  EXPECT_EQ(dealt.evaluated, oc.evaluated);
  EXPECT_EQ(dealt.model_ms, oc.model_ms);
}

TEST(Tuner, InfeasibleCandidatesScoreInfinite) {
  // A radix the axis cannot split and an oversized block both come back
  // as +inf instead of throwing out of the search.
  const auto spec = sim::geforce_8800_gtx();
  const auto desc = PlanDesc::bandwidth3d(cube(256), Direction::Forward);
  TuneConfig bad;
  bad.threads_per_block = 2048;  // above the SM thread limit
  EXPECT_TRUE(std::isinf(model_plan_ms(spec, desc, bad)));
  EXPECT_TRUE(std::isfinite(model_plan_ms(spec, desc, TuneConfig{})));
}

// ---------------------------------------------------------------------------
// Wisdom round-trip
// ---------------------------------------------------------------------------

TEST(Wisdom, TuneConfigLineRoundTrips) {
  TuneConfig cfg;
  cfg.coarse_twiddles = TwiddleSource::Constant;
  cfg.fine_twiddles = TwiddleSource::Recompute;
  cfg.blocks_per_sm = 2;
  cfg.threads_per_block = 128;
  cfg.coarse_radix = 8;
  cfg.shmem_pad_words = 0;
  cfg.slab_depth = 16;
  cfg.pitch = PitchMode::Padded;
  TuneConfig back;
  ASSERT_TRUE(parse_tune_config(cfg.to_string(), back));
  EXPECT_EQ(back, cfg);
  EXPECT_FALSE(parse_tune_config("tpb=sixtyfour", back));
  EXPECT_FALSE(parse_tune_config("warp=32", back));
  EXPECT_FALSE(parse_tune_config("pitch=ragged", back));
}

TEST(Wisdom, PlanLineRoundTrips) {
  const auto desc = PlanDesc::real3d(Shape3{64, 128, 256},
                                     Direction::Inverse);
  TuneConfig cfg;
  cfg.shmem_pad_words = 8;
  const std::string line = wisdom_line(desc, cfg);
  PlanDesc d2;
  TuneConfig c2;
  ASSERT_TRUE(parse_wisdom_line(line, d2, c2)) << line;
  EXPECT_EQ(d2, desc);
  EXPECT_EQ(c2, cfg);
  EXPECT_FALSE(parse_wisdom_line("plan kind=warp | tpb=64", d2, c2));
}

TEST(Wisdom, FingerprintSeesModelRelevantMutations) {
  const auto base = sim::geforce_8800_gtx();
  auto banks = base;
  banks.shmem_banks = 8;
  auto regs = base;
  regs.registers_per_sm = 6144;
  EXPECT_NE(spec_fingerprint(base), spec_fingerprint(banks));
  EXPECT_NE(spec_fingerprint(base), spec_fingerprint(regs));
  EXPECT_EQ(spec_fingerprint(base),
            spec_fingerprint(sim::geforce_8800_gtx()));
  EXPECT_TRUE(wisdom_header_matches(wisdom_header(base), base));
  EXPECT_FALSE(wisdom_header_matches(wisdom_header(banks), base));
  // Wisdom files persist the fingerprint, so its value is pinned too.
  EXPECT_EQ(wisdom_header(base), "gpu 8800_GTX fp=0xff3fba2303d252de");
}

TEST(Wisdom, RegistryRoundTripSkipsTheSearch) {
  const auto desc = PlanDesc::bandwidth3d(cube(64), Direction::Forward);
  std::string wisdom;
  TuneConfig tuned;
  {
    Device dev(sim::geforce_8800_gtx());
    auto& reg = PlanRegistry::of(dev);
    tuned = reg.tuned_config(desc);
    EXPECT_EQ(reg.tune_searches(), 1u);
    EXPECT_GT(reg.tune_evaluations(), 0u);
    // A second lookup hits the in-memory wisdom.
    reg.tuned_config(desc);
    EXPECT_EQ(reg.tune_searches(), 1u);
    wisdom = reg.export_wisdom();
  }
  // A fresh process (fresh device + registry) warms from the wisdom text
  // and never searches.
  Device dev(sim::geforce_8800_gtx());
  auto& reg = PlanRegistry::of(dev);
  ASSERT_EQ(reg.import_wisdom(wisdom), 1u);
  EXPECT_EQ(reg.tuned_config(desc), tuned);
  EXPECT_EQ(reg.tune_searches(), 0u) << "warm lookup must not re-search";
  EXPECT_EQ(reg.tune_evaluations(), 0u);
}

TEST(Wisdom, WrongSpecIsRejectedWhole) {
  const auto desc = PlanDesc::bandwidth3d(cube(64), Direction::Forward);
  std::string wisdom;
  {
    Device dev(sim::geforce_8800_gtx());
    auto& reg = PlanRegistry::of(dev);
    reg.tuned_config(desc);
    wisdom = reg.export_wisdom();
  }
  Device dev(sim::geforce_8800_gt());  // different card, different model
  auto& reg = PlanRegistry::of(dev);
  EXPECT_EQ(reg.import_wisdom(wisdom), 0u);
  EXPECT_EQ(reg.wisdom_size(), 0u);
}

TEST(Wisdom, SchemaVersionRoundTripsAndStaleIsRejectedWhole) {
  const auto desc = PlanDesc::bandwidth3d(cube(64), Direction::Forward);
  std::string wisdom;
  {
    Device dev(sim::geforce_8800_gtx());
    auto& reg = PlanRegistry::of(dev);
    reg.tuned_config(desc);
    wisdom = reg.export_wisdom();
  }
  // Export stamps the current schema, and a same-build import accepts it.
  EXPECT_NE(wisdom.find("schema " + std::to_string(kWisdomSchemaVersion)),
            std::string::npos);
  Device dev(sim::geforce_8800_gtx());
  auto& reg = PlanRegistry::of(dev);
  ASSERT_EQ(reg.import_wisdom(wisdom), 1u);
  reg.clear();

  // Wisdom from an older cost model (schema line with a different
  // number) is rejected all-or-nothing with a clear message.
  Device dev2(sim::geforce_8800_gtx());
  auto& reg2 = PlanRegistry::of(dev2);
  std::string stale = wisdom;
  const auto pos = stale.find("schema ");
  stale.replace(pos, std::string("schema ").size() + 1, "schema 1");
  std::string reason;
  EXPECT_EQ(reg2.import_wisdom(stale, &reason), 0u);
  EXPECT_EQ(reg2.wisdom_size(), 0u);
  EXPECT_NE(reason.find("schema 1"), std::string::npos);
  EXPECT_NE(reason.find("re-tune"), std::string::npos);

  // A pre-versioned file (no schema line at all) is rejected too.
  std::string legacy = wisdom;
  const auto line_end = legacy.find('\n', legacy.find("schema "));
  legacy.erase(legacy.find("schema "), line_end - legacy.find("schema ") + 1);
  reason.clear();
  EXPECT_EQ(reg2.import_wisdom(legacy, &reason), 0u);
  EXPECT_EQ(reg2.wisdom_size(), 0u);
  EXPECT_NE(reason.find("older"), std::string::npos);
}

TEST(Wisdom, FileRoundTrip) {
  const auto desc = PlanDesc::bandwidth3d(cube(64), Direction::Forward);
  const std::string path =
      ::testing::TempDir() + "/repro_gpufft_wisdom.txt";
  TuneConfig tuned;
  {
    Device dev(sim::geforce_8800_gtx());
    auto& reg = PlanRegistry::of(dev);
    tuned = reg.tuned_config(desc);
    reg.save_wisdom(path);
  }
  Device dev(sim::geforce_8800_gtx());
  auto& reg = PlanRegistry::of(dev);
  ASSERT_EQ(reg.load_wisdom(path), 1u);
  EXPECT_EQ(reg.tuned_config(desc), tuned);
  EXPECT_EQ(reg.tune_searches(), 0u);
}

// ---------------------------------------------------------------------------
// Tuned plans execute correctly
// ---------------------------------------------------------------------------

TEST(TunedPlans, TunedPlanMatchesHostFft) {
  const Shape3 shape = cube(64);
  const auto input = random_complex<float>(shape.volume(), 7);
  Device dev(sim::geforce_8800_gtx());
  auto& reg = PlanRegistry::of(dev);

  auto data = dev.alloc<cxf>(shape.volume());
  dev.h2d(data, std::span<const cxf>(input));
  auto plan =
      reg.get_or_create_tuned(PlanDesc::bandwidth3d(shape, Direction::Forward));
  plan->execute(data);
  std::vector<cxf> out(shape.volume());
  dev.d2h(std::span<cxf>(out), data);

  std::vector<cxf> ref = input;
  fft::Plan3D<float> host(shape, Direction::Forward);
  host.execute(ref);
  EXPECT_LT(rel_l2_error<float>(out, ref),
            fft_error_bound<float>(shape.volume()));
}

TEST(TunedPlans, TunedLookupsShareOnePlan) {
  Device dev(sim::geforce_8800_gtx());
  auto& reg = PlanRegistry::of(dev);
  const auto desc = PlanDesc::bandwidth3d(cube(64), Direction::Forward);
  auto a = reg.get_or_create_tuned(desc);
  auto b = reg.get_or_create_tuned(desc);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(reg.tune_searches(), 1u) << "one search per (spec, desc)";
}

TEST(TunedPlans, GroupTunedConfigSearchesOncePerFingerprint) {
  sim::DeviceGroup group(4, sim::geforce_8800_gts());
  auto& reg = PlanRegistry::of(group);
  const auto desc = PlanDesc::bandwidth3d(cube(64), Direction::Forward);
  const TuneConfig cfg = reg.tuned_config(desc);
  EXPECT_EQ(reg.tune_searches(), 1u)
      << "a homogeneous fleet shares one tuning search";
  // The winner was seeded into every member's wisdom: member registries
  // (which build the per-card slab plans) answer warm.
  for (std::size_t d = 0; d < group.size(); ++d) {
    auto& member = PlanRegistry::of(group.device(d));
    EXPECT_EQ(member.wisdom_size(), 1u) << "member " << d;
    EXPECT_EQ(member.tuned_config(desc), cfg) << "member " << d;
    EXPECT_EQ(member.tune_searches(), 0u) << "member " << d;
  }
  // And the group's own second lookup is warm too.
  (void)reg.tuned_config(desc);
  EXPECT_EQ(reg.tune_searches(), 1u);
}

TEST(TunedPlans, GroupTunedConfigSearchesPerDistinctSpec) {
  // Two distinct specs in the fleet: exactly two searches, with the
  // duplicate 8800 GT reusing the first GT's result.
  sim::DeviceGroup group({sim::geforce_8800_gt(), sim::geforce_gtx_280(),
                          sim::geforce_8800_gt()});
  auto& reg = PlanRegistry::of(group);
  const auto desc = PlanDesc::bandwidth3d(cube(64), Direction::Forward);
  (void)reg.tuned_config(desc);
  EXPECT_EQ(reg.tune_searches(), 2u);
  for (std::size_t d = 0; d < group.size(); ++d) {
    auto& member = PlanRegistry::of(group.device(d));
    (void)member.tuned_config(desc);
    EXPECT_EQ(member.tune_searches(), 0u) << "member " << d;
  }
}

TEST(TunedPlans, TunedLookupRejectsPreTunedDescriptions) {
  Device dev(sim::geforce_8800_gtx());
  auto& reg = PlanRegistry::of(dev);
  PlanDesc desc = PlanDesc::bandwidth3d(cube(64), Direction::Forward);
  desc.tune.blocks_per_sm = 1;
  EXPECT_THROW((void)reg.tuned_config(desc), Error);
}

}  // namespace
}  // namespace repro::gpufft
