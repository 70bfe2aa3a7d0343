#include "gpufft/batch_sharded.h"

#include <cmath>

#include "gpufft/registry.h"

namespace repro::gpufft {
namespace {

/// Member plan description: the single-card out-of-core schedule with the
/// decimation already folded in (slab_depth zeroed so the member plan
/// does not re-apply it).
PlanDesc member_desc(std::size_t n, std::size_t shards, Direction dir,
                     TuneConfig tune) {
  PlanDesc d = PlanDesc::out_of_core(n, shards, dir);
  tune.slab_depth = 0;
  d.tune = tune;
  return d;
}

/// Closed-form makespan of dealing `batch` volumes round-robin to
/// `devices` members: the busiest member runs ceil(batch/devices)
/// out-of-core volumes back to back, each at the single-card streamed
/// model. Frozen: 17 of tier-1's 66 tree deal-vs-shard verdicts tie it
/// with the shard side at the last ulp, and pinned service timelines
/// depend on which way each falls.
double batch_model_ms(const ShardPhases& p, const sim::GpuSpec& spec,
                      std::size_t n, std::size_t shards, std::size_t devices,
                      std::size_t batch) {
  REPRO_CHECK(devices > 0 && batch > 0);
  const double per_volume = sharded_model_ms(p, spec, n, shards, 1);
  const double rounds =
      std::ceil(static_cast<double>(batch) / static_cast<double>(devices));
  return rounds * per_volume;
}

}  // namespace

BatchShardedFft3DPlan::BatchShardedFft3DPlan(sim::DeviceGroup& group,
                                             std::size_t n,
                                             std::size_t shards,
                                             Direction dir, TuneConfig tune)
    : FftPlanT<float>(group.device(0),
                       PlanDesc::batch_sharded3d(
                           n, checked_decimation(n, shards, tune), dir)),
      group_(&group),
      n_(n),
      shards_(desc_.splits) {
  desc_.tune = tune;
  // No group-divisibility constraints: dealing works for any member count
  // because each volume runs whole on one card.
  member_plans_.reserve(group.size());
  for (std::size_t d = 0; d < group.size(); ++d) {
    // Members already lost get no plan; the dealer only targets alive
    // members.
    if (group.device(d).lost()) {
      member_plans_.push_back(nullptr);
      continue;
    }
    member_plans_.push_back(
        PlanRegistry::of(group.device(d))
            .get_or_create(member_desc(n, shards_, dir, tune)));
  }
}

std::vector<StepTiming> BatchShardedFft3DPlan::execute_impl(DeviceBuffer<cxf>&) {
  REPRO_FAIL(
      "batch-sharded plans deal host-resident volumes across a device "
      "group; use execute_batch()/execute_batch_host()");
}

BatchDealTiming BatchShardedFft3DPlan::execute_batch(
    std::span<const std::span<cxf>> volumes) {
  REPRO_CHECK(!volumes.empty());
  for (const auto& v : volumes) check_host_volume(v);
  return with_plan_context(desc_, [&] {
    // Propagate the batch plan's policy so every dealt volume verifies
    // inside its member's out-of-core execute — per-volume bounded
    // recompute with the running member attributed. (Member plans are
    // registry-shared; the policy is per-plan state, set fresh here.)
    for (std::size_t d : group_->schedulable_members()) {
      member_plans_[d]->set_exec_policy(this->exec_policy());
    }
    const double t0 = group_->elapsed_ms();
    BatchDealTiming bt;
    bt.volume_done_ms.resize(volumes.size());
    bt.volume_member.resize(volumes.size());
    std::vector<StepTiming> rows;
    std::vector<double> traffic;
    std::size_t next = 0;
    for (std::size_t k = 0; k < volumes.size(); ++k) {
      // Each attempt deals the volume to the next schedulable member in
      // rotation, so a volume torn by a lost card re-deals to a survivor.
      retry_past_lost_cards(*group_, volumes[k], [&] {
        const auto members = group_->schedulable_members();
        const std::size_t d = members[next++ % members.size()];
        accumulate_steps(rows, traffic,
                         member_plans_[d]->execute_host(volumes[k]));
        bt.volume_member[k] = static_cast<int>(d);
        bt.volume_done_ms[k] = group_->device(d).elapsed_ms() - t0;
      });
    }
    // Members already synced their own volumes (the out-of-core plan
    // drains its device); the group view is just the slowest member.
    bt.makespan_ms = group_->elapsed_ms() - t0;
    finish_accumulation(rows, traffic);
    last_steps_ = std::move(rows);
    last_total_ms_ = bt.makespan_ms;
    return bt;
  });
}

std::vector<StepTiming> BatchShardedFft3DPlan::execute_host(
    std::span<cxf> data) {
  const std::span<cxf> one[] = {data};
  return execute_batch_host(one);
}

std::vector<StepTiming> BatchShardedFft3DPlan::execute_batch_host(
    std::span<const std::span<cxf>> volumes) {
  // execute_batch leaves last_total_ms() at the dealt makespan.
  execute_batch(volumes);
  return last_steps_;
}

BatchChoice choose_batch_strategy(const ShardPhases& p,
                                  const sim::GpuSpec& spec,
                                  const sim::Topology& topo, Direction dir,
                                  std::size_t n, std::size_t shards,
                                  std::size_t devices, std::size_t batch) {
  BatchChoice c;
  c.deal_ms = batch_model_ms(p, spec, n, shards, devices, batch);
  const ShardLayout lay =
      shard_layout(topo, n, shards, devices, Decomposition::Pencil);
  if (lay.exchange == Exchange::HostStaged) {
    // No peer path: the pipelined replay over the member prefix the
    // sharded plan will actually use (the largest one dividing both phase
    // extents).
    c.shard_ms =
        sharded_batch_model_ms(p, spec, n, shards, lay.members, batch);
  } else {
    const Decomposition d =
        choose_decomposition(topo, spec, n, shards, devices, dir);
    // Back-to-back volumes: a serial upper bound on the pipelined
    // schedule, so Shard only wins when it genuinely wins.
    c.shard_ms =
        static_cast<double>(batch) *
        topology_model_ms(p, spec, topo, n, shards, devices, d, dir);
  }
  c.strategy =
      c.deal_ms <= c.shard_ms ? BatchStrategy::Deal : BatchStrategy::Shard;
  return c;
}

}  // namespace repro::gpufft
