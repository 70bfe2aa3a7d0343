// Batched multi-volume execution: the dealt batch plan
// (BatchShardedFft3DPlan), the pipelined sharded batch, bit-identity of
// every schedule against the serial reference, the closed-form batch
// models and the deal-vs-shard decision rule, and mid-batch DeviceLost
// recovery for both paths.
#include "gpufft/batch_sharded.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>

#include "common/rng.h"
#include "gpufft/registry.h"
#include "gpufft/sharded.h"
#include "sim/fault.h"

namespace repro::gpufft {
namespace {

bool bit_identical(const std::vector<cxf>& a, const std::vector<cxf>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].re != b[i].re || a[i].im != b[i].im) return false;
  }
  return true;
}

std::vector<std::vector<cxf>> make_volumes(std::size_t count, std::size_t n,
                                           std::uint64_t seed0) {
  std::vector<std::vector<cxf>> v;
  v.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    v.push_back(random_complex<float>(n * n * n, seed0 + k));
  }
  return v;
}

std::vector<std::span<cxf>> spans_of(std::vector<std::vector<cxf>>& v) {
  std::vector<std::span<cxf>> s;
  s.reserve(v.size());
  for (auto& x : v) s.emplace_back(x);
  return s;
}

/// Reference results: each volume through the serial sharded schedule on
/// a fresh group (the PR 3 behavior every batch path must reproduce).
std::vector<std::vector<cxf>> serial_reference(
    std::size_t n, std::size_t shards, Direction dir,
    const std::vector<std::vector<cxf>>& inputs) {
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, n, shards, dir);
  std::vector<std::vector<cxf>> out = inputs;
  for (auto& v : out) plan.execute(std::span<cxf>(v));
  return out;
}

TEST(BatchSharded, DealtBatchBitIdenticalToShardedAnyGroupSize) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto inputs = make_volumes(3, n, 101);
  const auto ref = serial_reference(n, shards, Direction::Forward, inputs);
  // Dealing has no divisibility constraints: 3 members neither divides
  // shards=4 nor n/shards=8, yet results must stay bit-identical.
  for (const std::size_t devices : {1u, 2u, 3u}) {
    sim::DeviceGroup group(devices, sim::geforce_8800_gts());
    BatchShardedFft3DPlan plan(group, n, shards, Direction::Forward);
    auto data = inputs;
    auto spans = spans_of(data);
    const auto bt = plan.execute_batch(spans);
    EXPECT_EQ(bt.volume_done_ms.size(), 3u);
    EXPECT_GT(bt.makespan_ms, 0.0);
    EXPECT_GT(bt.volumes_per_sec(), 0.0);
    for (std::size_t k = 0; k < data.size(); ++k) {
      EXPECT_TRUE(bit_identical(data[k], ref[k]))
          << "devices=" << devices << " volume=" << k;
      EXPECT_EQ(static_cast<std::size_t>(bt.volume_member[k]), k % devices);
    }
  }
}

TEST(BatchSharded, PipelinedBatchBitIdenticalToSerialAcrossGroups) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto inputs = make_volumes(3, n, 202);
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    const auto ref = serial_reference(n, shards, dir, inputs);
    std::vector<std::vector<sim::GpuSpec>> fleets = {
        {sim::geforce_8800_gts()},
        {sim::geforce_8800_gts(), sim::geforce_8800_gts()},
        std::vector<sim::GpuSpec>(4, sim::geforce_8800_gts()),
        {sim::geforce_8800_gt(), sim::geforce_8800_gtx()},
    };
    for (auto& specs : fleets) {
      sim::DeviceGroup group(specs);
      ShardedFft3DPlan plan(group, n, shards, dir);
      auto data = inputs;
      auto spans = spans_of(data);
      const auto bt = plan.execute_batch(spans, BatchMode::Pipelined);
      EXPECT_EQ(bt.volume_done_ms.size(), 3u);
      for (std::size_t k = 0; k < data.size(); ++k) {
        EXPECT_TRUE(bit_identical(data[k], ref[k]))
            << "fleet=" << specs.size() << " volume=" << k;
      }
      // Completion offsets are positive and ordered with the schedule.
      for (std::size_t k = 0; k < bt.volume_done_ms.size(); ++k) {
        EXPECT_GT(bt.volume_done_ms[k], 0.0);
        EXPECT_LE(bt.volume_done_ms[k], bt.makespan_ms + 1e-9);
      }
      EXPECT_GT(bt.exchange_occupancy(), 0.0);
      EXPECT_GT(bt.compute_occupancy(), 0.0);
    }
  }
}

TEST(BatchSharded, PipelinedImprovesMakespanOnDualEngineCards) {
  // The acceptance configuration scaled to test size: a 4-card group of
  // 2-DMA GT200 cards, where the serial schedule leaves the bridge idle
  // between volumes and the pipeline hides the exchange under the next
  // volume's phase 1.
  const std::size_t n = 64;
  const std::size_t shards = 8;
  auto inputs = make_volumes(4, n, 303);
  sim::DeviceGroup group(4, sim::geforce_gtx_280());
  ShardedFft3DPlan plan(group, n, shards, Direction::Forward);

  auto serial_data = inputs;
  auto serial_spans = spans_of(serial_data);
  const auto serial = plan.execute_batch(serial_spans, BatchMode::Serial);

  auto pipe_data = inputs;
  auto pipe_spans = spans_of(pipe_data);
  const auto piped = plan.execute_batch(pipe_spans, BatchMode::Pipelined);

  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_TRUE(bit_identical(pipe_data[k], serial_data[k])) << k;
  }
  const double gain = serial.makespan_ms / piped.makespan_ms;
  EXPECT_GE(gain, 1.2) << "serial=" << serial.makespan_ms
                       << " pipelined=" << piped.makespan_ms;
}

TEST(BatchSharded, BatchModelTracksPipelinedScheduler) {
  const std::size_t n = 64;
  const std::size_t shards = 8;
  for (const auto& spec :
       {sim::geforce_8800_gts(), sim::geforce_gtx_280()}) {
    for (const std::size_t devices : {2u, 4u}) {
      sim::DeviceGroup group(devices, spec);
      const auto& derated = group.device(0).spec();
      const auto phases =
          probe_shard_phases(derated, n, shards, Direction::Forward);
      ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
      auto data = make_volumes(4, n, 404);
      auto spans = spans_of(data);
      const auto bt = plan.execute_batch(spans, BatchMode::Pipelined);
      const double model =
          sharded_batch_model_ms(phases, derated, n, shards, devices, 4);
      const double err =
          std::abs(model - bt.makespan_ms) / bt.makespan_ms;
      EXPECT_LT(err, 0.05) << spec.name << " x" << devices
                           << " model=" << model
                           << " measured=" << bt.makespan_ms;
    }
  }
}

TEST(BatchSharded, ModelPredictsDealVsShardCrossover) {
  // The planner rule: sharding wins while the batch is smaller than the
  // fleet (dealing idles cards), dealing wins once every card has a
  // whole volume. Both model sides must track the scheduler to <= 5% and
  // the predicted winner must match the measured one at every batch size.
  const std::size_t n = 64;
  const std::size_t shards = 8;
  const std::size_t devices = 4;
  sim::DeviceGroup group(devices, sim::geforce_8800_gts());
  const auto& derated = group.device(0).spec();
  const auto phases =
      probe_shard_phases(derated, n, shards, Direction::Forward);
  ShardedFft3DPlan shard_plan(group, n, shards, Direction::Forward);
  BatchShardedFft3DPlan deal_plan(group, n, shards, Direction::Forward);

  for (const std::size_t batch : {1u, 2u, 4u, 8u}) {
    auto shard_data = make_volumes(batch, n, 500 + batch);
    auto shard_spans = spans_of(shard_data);
    const auto sharded =
        shard_plan.execute_batch(shard_spans, BatchMode::Pipelined);

    auto deal_data = make_volumes(batch, n, 500 + batch);
    auto deal_spans = spans_of(deal_data);
    const auto dealt = deal_plan.execute_batch(deal_spans);

    const BatchChoice c =
        choose_batch_strategy(phases, derated, group.topo(),
                              Direction::Forward, n, shards, devices, batch);
    const double deal_err =
        std::abs(c.deal_ms - dealt.makespan_ms) / dealt.makespan_ms;
    const double shard_err =
        std::abs(c.shard_ms - sharded.makespan_ms) / sharded.makespan_ms;
    EXPECT_LT(deal_err, 0.05) << "batch=" << batch;
    EXPECT_LT(shard_err, 0.05) << "batch=" << batch;

    // Winner prediction: only meaningful when the measured gap is
    // decisive. A homogeneous bridge-bound fleet moves the same bytes
    // either way, so large batches land within noise of a tie — either
    // choice is right there.
    const double gap = std::abs(dealt.makespan_ms - sharded.makespan_ms);
    if (gap > 0.02 * std::min(dealt.makespan_ms, sharded.makespan_ms)) {
      const BatchStrategy measured =
          dealt.makespan_ms <= sharded.makespan_ms ? BatchStrategy::Deal
                                                   : BatchStrategy::Shard;
      EXPECT_EQ(c.strategy, measured)
          << "batch=" << batch << " deal=" << dealt.makespan_ms
          << " shard=" << sharded.makespan_ms;
    }
    if (batch == 1) {
      // A single volume must shard: dealing leaves 3 of 4 cards idle.
      EXPECT_EQ(c.strategy, BatchStrategy::Shard);
      EXPECT_LT(sharded.makespan_ms, dealt.makespan_ms);
    }
  }
}

TEST(BatchSharded, DealWinsWhenShardingCannotUseEveryCard) {
  // 3 cards, 8 shards: the sharded plan falls back to a 2-member prefix
  // (3 divides neither 8 nor n/shards), while dealing keeps all three
  // busy — so the crossover is decisive, not a bridge-bound tie.
  const std::size_t n = 64;
  const std::size_t shards = 8;
  const std::size_t devices = 3;
  sim::DeviceGroup group(devices, sim::geforce_8800_gts());
  const auto& derated = group.device(0).spec();
  const auto phases =
      probe_shard_phases(derated, n, shards, Direction::Forward);
  ShardedFft3DPlan shard_plan(group, n, shards, Direction::Forward);
  BatchShardedFft3DPlan deal_plan(group, n, shards, Direction::Forward);

  for (const std::size_t batch : {1u, 6u}) {
    auto shard_data = make_volumes(batch, n, 900 + batch);
    auto shard_spans = spans_of(shard_data);
    const auto sharded =
        shard_plan.execute_batch(shard_spans, BatchMode::Pipelined);
    auto deal_data = make_volumes(batch, n, 900 + batch);
    auto deal_spans = spans_of(deal_data);
    const auto dealt = deal_plan.execute_batch(deal_spans);

    const BatchChoice c =
        choose_batch_strategy(phases, derated, group.topo(),
                              Direction::Forward, n, shards, devices, batch);
    EXPECT_LT(std::abs(c.deal_ms - dealt.makespan_ms) / dealt.makespan_ms,
              0.05)
        << "batch=" << batch;
    EXPECT_LT(
        std::abs(c.shard_ms - sharded.makespan_ms) / sharded.makespan_ms,
        0.05)
        << "batch=" << batch;
    const BatchStrategy measured =
        dealt.makespan_ms <= sharded.makespan_ms ? BatchStrategy::Deal
                                                 : BatchStrategy::Shard;
    EXPECT_EQ(c.strategy, measured)
        << "batch=" << batch << " deal=" << dealt.makespan_ms
        << " shard=" << sharded.makespan_ms;
    EXPECT_EQ(c.strategy,
              batch == 1 ? BatchStrategy::Shard : BatchStrategy::Deal);
  }
}

/// DeviceLost occurrences on `victim` for one full dealt/pipelined batch,
/// measured with a disarmed injector (counting matches an armed run up to
/// the first fire).
template <typename RunBatch>
std::uint64_t occurrences_for(sim::DeviceGroup& group, std::size_t victim,
                              RunBatch&& run) {
  auto& inj = group.faults(victim);
  inj.disarm_all();
  run();
  return inj.occurrences(sim::FaultKind::DeviceLost);
}

TEST(BatchSharded, PipelinedBatchSurvivesMidStreamDeviceLost) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto inputs = make_volumes(4, n, 606);
  const auto ref = serial_reference(n, shards, Direction::Forward, inputs);

  sim::DeviceGroup group(4, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
  auto count_data = inputs;
  auto count_spans = spans_of(count_data);
  const std::uint64_t total = occurrences_for(group, 2, [&] {
    plan.execute_batch(count_spans, BatchMode::Pipelined);
  });
  ASSERT_GT(total, 0u);

  // Lose member 2 roughly mid-batch: queued volumes must still complete,
  // bit-identically, on the survivors.
  sim::DeviceGroup fresh(4, sim::geforce_8800_gts());
  fresh.faults(2).arm(sim::FaultKind::DeviceLost, total / 2);
  ShardedFft3DPlan fplan(fresh, n, shards, Direction::Forward);
  auto data = inputs;
  auto spans = spans_of(data);
  const auto bt = fplan.execute_batch(spans, BatchMode::Pipelined);
  EXPECT_EQ(bt.volume_done_ms.size(), 4u);
  // Charged to the lost member, not to the survivors.
  EXPECT_GT(fresh.device(2).health().device_lost_failovers, 0u);
  EXPECT_EQ(fresh.health_sum().device_lost_failovers,
            fresh.device(2).health().device_lost_failovers);
  EXPECT_EQ(fresh.alive_count(), 3u);
  for (std::size_t k = 0; k < data.size(); ++k) {
    EXPECT_TRUE(bit_identical(data[k], ref[k])) << "volume=" << k;
  }
}

TEST(BatchSharded, DealtBatchSurvivesMidStreamDeviceLost) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto inputs = make_volumes(4, n, 707);
  const auto ref = serial_reference(n, shards, Direction::Forward, inputs);

  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  BatchShardedFft3DPlan plan(group, n, shards, Direction::Forward);
  auto count_data = inputs;
  auto count_spans = spans_of(count_data);
  const std::uint64_t total = occurrences_for(
      group, 1, [&] { plan.execute_batch(count_spans); });
  ASSERT_GT(total, 0u);

  sim::DeviceGroup fresh(2, sim::geforce_8800_gts());
  fresh.faults(1).arm(sim::FaultKind::DeviceLost, total / 2);
  BatchShardedFft3DPlan fplan(fresh, n, shards, Direction::Forward);
  auto data = inputs;
  auto spans = spans_of(data);
  const auto bt = fplan.execute_batch(spans);
  EXPECT_GT(fresh.device(1).health().device_lost_failovers, 0u);
  EXPECT_EQ(fresh.device(0).health().device_lost_failovers, 0u);
  EXPECT_EQ(fresh.alive_count(), 1u);
  for (std::size_t k = 0; k < data.size(); ++k) {
    EXPECT_TRUE(bit_identical(data[k], ref[k])) << "volume=" << k;
    // Every volume ran (or re-ran) on an alive member.
    if (k > 0) {
      EXPECT_EQ(bt.volume_member[k], 0);
    }
  }
}

TEST(BatchSharded, RegistryFrontDoorServesBatchShardedPlans) {
  const std::size_t n = 32;
  sim::DeviceGroup group(3, sim::geforce_8800_gts());
  auto& reg = PlanRegistry::of(group);
  const auto desc = PlanDesc::batch_sharded3d(n, 4, Direction::Forward);
  auto plan = reg.get_or_create(desc);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->desc().kind, PlanKind::BatchSharded3D);

  auto inputs = make_volumes(2, n, 808);
  const auto ref = serial_reference(n, 4, Direction::Forward, inputs);
  auto spans = spans_of(inputs);
  const auto steps = plan->execute_batch_host(spans);
  EXPECT_FALSE(steps.empty());
  EXPECT_GT(plan->last_total_ms(), 0.0);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_TRUE(bit_identical(inputs[k], ref[k])) << k;
  }
  auto again = reg.get_or_create(desc);
  EXPECT_EQ(plan.get(), again.get());
  EXPECT_GE(reg.hits(), 1u);
}

TEST(ZDecimation, EveryPlanRejectsBadDecimationNamingNAndS) {
  // One rule for every Z-decimated plan: S divides n and is a
  // power-of-two small-FFT factor. A violation raises a typed Error that
  // names both numbers.
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  Device dev(sim::geforce_8800_gts());
  const Direction fwd = Direction::Forward;
  struct Plan {
    const char* name;
    std::function<void(std::size_t, std::size_t)> make;
  };
  const Plan plans[] = {
      {"out-of-core",
       [&](std::size_t n, std::size_t s) { OutOfCoreFft3D(dev, n, s, fwd); }},
      {"sharded",
       [&](std::size_t n, std::size_t s) {
         ShardedFft3DPlan(group, n, s, fwd);
       }},
      {"sharded real",
       [&](std::size_t n, std::size_t s) {
         ShardedRealFft3DPlan(group, n, s, fwd);
       }},
      {"batch-sharded",
       [&](std::size_t n, std::size_t s) {
         BatchShardedFft3DPlan(group, n, s, fwd);
       }},
  };
  const std::pair<std::size_t, std::size_t> bad[] = {{64, 3}, {63, 4}};
  for (const Plan& p : plans) {
    for (const auto& [n, s] : bad) {
      try {
        p.make(n, s);
        ADD_FAILURE() << p.name << " accepted n=" << n << " S=" << s;
      } catch (const Error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("n=" + std::to_string(n)), std::string::npos)
            << p.name << ": " << msg;
        EXPECT_NE(msg.find("S=" + std::to_string(s)), std::string::npos)
            << p.name << ": " << msg;
      }
    }
  }
}

}  // namespace
}  // namespace repro::gpufft
