// Batch-level multi-GPU parallelism: whole volumes dealt to group members.
//
// ShardedFft3DPlan splits ONE volume across N cards and pays a host-staged
// all-to-all through the shared PCIe bridge — the right trade when a single
// volume's latency matters or the volume does not fit one card. But a batch
// of independent volumes has an embarrassingly parallel alternative: deal
// volume k to member k mod N and let each card run the single-device
// out-of-core schedule end to end. No exchange, no phase barrier, no
// bridge serialization beyond the concurrent slab streams — at the cost of
// per-volume latency (one card per volume) and host staging (each member
// plan keeps its own work volume).
//
// Which wins depends on (batch size, volume size, group): for B < N the
// dealt schedule idles cards while sharding uses all of them; for B >= N
// dealing saturates the fleet with zero exchange. choose_batch_strategy
// prices both sides with the sharded models and is the planner rule the
// FFT service applies per request batch (cross-checked to a few percent
// by the batch tests).
//
// Results are bit-identical to ShardedFft3DPlan of the same (n, shards,
// dir): the dealt schedule per member IS the out-of-core schedule, and the
// sharded plan's decimation arithmetic depends only on `shards` — the test
// suite pins sharded == out-of-core == dealt.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "gpufft/fft_plan.h"
#include "gpufft/sharded.h"
#include "sim/device_group.h"

namespace repro::gpufft {

/// Timing of one dealt batch.
struct BatchDealTiming {
  double makespan_ms{};  ///< batch wall-clock across the fleet
  std::vector<double> volume_done_ms;  ///< completion offsets from batch start
  std::vector<int> volume_member;      ///< group ordinal that ran each volume

  [[nodiscard]] double volumes_per_sec() const {
    return makespan_ms > 0.0
               ? 1e3 * static_cast<double>(volume_done_ms.size()) /
                     makespan_ms
               : 0.0;
  }
};

/// Deals whole volumes round-robin to the members of a DeviceGroup; each
/// member runs its registry-shared out-of-core plan (decimation `shards`),
/// so any group size works — no divisibility constraints beyond the
/// out-of-core ones. Obtain through a group-attached PlanRegistry:
///
///   auto plan = gpufft::PlanRegistry::of(group).get_or_create(
///       gpufft::PlanDesc::batch_sharded3d(256, 8, Direction::Forward));
///
/// Survives DeviceLost mid-batch: the failing volume restores from its
/// snapshot (taken only while faults are armed) and re-deals to a
/// survivor; completed volumes keep their results.
class BatchShardedFft3DPlan final : public FftPlanT<float> {
 public:
  BatchShardedFft3DPlan(sim::DeviceGroup& group, std::size_t n,
                        std::size_t shards, Direction dir,
                        TuneConfig tune = {});

  /// Deal `volumes` across the alive members. Volumes dealt to different
  /// cards overlap fully (independent engine timelines); volumes on the
  /// same card run back-to-back, each internally double-buffered.
  BatchDealTiming execute_batch(std::span<const std::span<cxf>> volumes);

  /// Unsupported: the batch is host-resident by construction.
  std::vector<StepTiming> execute_impl(DeviceBuffer<cxf>& data) override;

  /// One volume dealt to the first schedulable member: dealing restarts
  /// at member 0 on every call.
  std::vector<StepTiming> execute_host(std::span<cxf> data) override;

  /// The FftPlan batch entry point (out-of-core phase rows summed across
  /// volumes); last_total_ms() afterwards is the dealt batch makespan.
  std::vector<StepTiming> execute_batch_host(
      std::span<const std::span<cxf>> volumes) override;

 private:
  sim::DeviceGroup* group_;
  std::size_t n_;
  std::size_t shards_;
  /// One registry-shared out-of-core plan per member.
  std::vector<std::shared_ptr<FftPlan>> member_plans_;
  /// Out-of-core phase rows of the last batch, summed across volumes.
  std::vector<StepTiming> last_steps_;
};

/// The deal-vs-shard decision for one batch.
enum class BatchStrategy {
  Deal,   ///< whole volumes to members (BatchShardedFft3DPlan)
  Shard,  ///< every volume across the fleet (ShardedFft3DPlan batch)
};

struct BatchChoice {
  BatchStrategy strategy{BatchStrategy::Deal};
  double deal_ms{};   ///< modeled dealt batch makespan
  double shard_ms{};  ///< modeled sharded batch makespan
};

/// Pick deal vs shard for `batch` volumes of n^3 on a homogeneous group
/// of `devices` cards on `topo`, from the models alone (no execution);
/// `p` must be probed on the bridge-derated member spec. Host-staged
/// layouts price the shard side with the pipelined batch model. Peer
/// layouts use topology_model_ms over the decomposition the planner
/// would pick, as `batch` back-to-back volumes — an upper bound on the
/// pipelined schedule, so a Shard verdict under it is safe. This is the
/// rule the FFT service applies.
BatchChoice choose_batch_strategy(const ShardPhases& p,
                                  const sim::GpuSpec& spec,
                                  const sim::Topology& topo, Direction dir,
                                  std::size_t n, std::size_t shards,
                                  std::size_t devices, std::size_t batch);

}  // namespace repro::gpufft
