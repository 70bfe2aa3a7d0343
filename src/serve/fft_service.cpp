#include "serve/fft_service.h"

#include <algorithm>

#include "common/rng.h"

namespace repro::serve {

using gpufft::BatchStrategy;
using gpufft::PlanDesc;
using gpufft::PlanKind;
using gpufft::PlanRegistry;

FftService::FftService(sim::DeviceGroup& group, ServiceConfig cfg)
    : group_(group), cfg_(cfg) {
  REPRO_CHECK(cfg_.max_queue_depth > 0 && cfg_.max_batch > 0);
  gpufft::validate_policy(cfg_.exec);  // typed, names the offending field
  group_.set_health_policy(cfg_.health);
  if (cfg_.byte_watermark != 0) {
    PlanRegistry::of(group_).set_byte_watermark(cfg_.byte_watermark);
  }
}

Admission FftService::submit(const FftRequest& req) {
  REPRO_CHECK_MSG(req.data.size() == req.desc.buffer_elements(),
                  "request volume does not match its plan description");
  if (queue_.size() >= cfg_.max_queue_depth) {
    ++rejected_queue_full_;
    return Admission::RejectedQueueFull;
  }
  if (cfg_.byte_watermark != 0 &&
      PlanRegistry::plan_headroom_bytes(req.desc) > cfg_.byte_watermark) {
    ++rejected_bytes_;
    return Admission::RejectedBytes;
  }
  queue_.push_back(req);
  peak_queue_depth_ = std::max(peak_queue_depth_, queue_.size());
  return Admission::Accepted;
}

const gpufft::ShardPhases& FftService::phases_for(const PlanDesc& desc) {
  PlanDesc key = desc;
  key.kind = PlanKind::Sharded3D;  // probes are shard-schedule phases
  auto it = phases_.find(key);
  if (it == phases_.end()) {
    it = phases_
             .emplace(key, gpufft::probe_shard_phases(
                               group_.device(0).spec(), desc.shape.nx,
                               desc.splits, desc.dir))
             .first;
  }
  return it->second;
}

void FftService::run_batch(const std::vector<FftRequest>& batch,
                           ServiceReport& rep) {
  const PlanDesc& desc = batch.front().desc;
  const std::size_t n = desc.shape.nx;
  const double t0 = group_.elapsed_ms();
  auto& reg = PlanRegistry::of(group_);

  // A typed sim error is only reachable with an injector armed (the
  // simulator has no spontaneous faults), so the salvage snapshot is
  // taken exactly then; the fault-free path allocates nothing extra.
  std::vector<std::vector<cxf>> snapshot;
  if (group_.any_faults_armed()) {
    snapshot.reserve(batch.size());
    for (const auto& r : batch) {
      snapshot.emplace_back(r.data.begin(), r.data.end());
    }
  }

  std::vector<std::span<cxf>> spans;
  spans.reserve(batch.size());
  for (const auto& r : batch) spans.push_back(r.data);

  std::vector<double> done;  // per-volume offsets from t0
  BatchStrategy strategy = BatchStrategy::Shard;

  try {
    if (desc.kind == PlanKind::Sharded3D &&
        desc.layout == gpufft::Layout::RealHalfSpectrum) {
      // Real transforms: the sharded real plan, one volume at a time (its
      // half-spectrum exchange has no pipelined variant).
      auto plan = std::dynamic_pointer_cast<gpufft::ShardedRealFft3DPlan>(
          reg.get_or_create(desc));
      REPRO_CHECK(plan != nullptr);
      plan->set_exec_policy(cfg_.exec);
      for (const auto s : spans) {
        plan->execute(s);
        done.push_back(group_.elapsed_ms() - t0);
      }
    } else {
      if (desc.kind == PlanKind::Sharded3D) {
        // Complex fleet volumes: the modeled deal-vs-shard choice, keyed
        // on the fabric (peer layouts shard wider and skip the bridge).
        strategy = gpufft::choose_batch_strategy(
                       phases_for(desc), group_.device(0).spec(),
                       group_.topo(), desc.dir, n, desc.splits,
                       group_.schedulable_count(), batch.size())
                       .strategy;
      } else if (desc.kind == PlanKind::OutOfCore ||
                 desc.kind == PlanKind::BatchSharded3D) {
        // Single-card volumes: deal them to the members round-robin.
        strategy = BatchStrategy::Deal;
      } else {
        REPRO_FAIL(
            "FftService serves Sharded3D, BatchSharded3D and OutOfCore "
            "descriptions; got " +
            desc.to_string());
      }
      if (strategy == BatchStrategy::Deal) {
        auto plan = std::dynamic_pointer_cast<gpufft::BatchShardedFft3DPlan>(
            reg.get_or_create(
                PlanDesc::batch_sharded3d(n, desc.splits, desc.dir)));
        REPRO_CHECK(plan != nullptr);
        plan->set_exec_policy(cfg_.exec);
        done = plan->execute_batch(spans).volume_done_ms;
      } else {
        auto plan = std::dynamic_pointer_cast<gpufft::ShardedFft3DPlan>(
            reg.get_or_create(desc));
        REPRO_CHECK(plan != nullptr);
        plan->set_exec_policy(cfg_.exec);
        done = plan->execute_batch(spans).volume_done_ms;
      }
    }
  } catch (const sim::SimError&) {
    // The fused execution died after its own recovery layers gave up.
    // With pristine inputs in hand, isolate the poison per request so
    // one bad volume cannot take down its batchmates; without them
    // (injector armed mid-run) the typed error propagates to the caller.
    if (snapshot.empty()) throw;
    run_salvage(batch, snapshot, strategy, rep);
    return;
  }

  REPRO_CHECK(done.size() == batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    CompletionRecord c;
    c.id = batch[i].id;
    c.done_ms = t0 + done[i];
    c.latency_ms = c.done_ms - batch[i].arrival_ms;
    c.strategy = strategy;
    rep.completions.push_back(c);
  }
}

void FftService::run_salvage(const std::vector<FftRequest>& batch,
                             const std::vector<std::vector<cxf>>& snapshot,
                             BatchStrategy strategy, ServiceReport& rep) {
  const PlanDesc& desc = batch.front().desc;
  // Sharded descriptions re-run on their own plan, even when the batch was
  // dealt; single-card ones on the deal plan, one volume per call.
  const PlanDesc salvage =
      desc.kind == PlanKind::Sharded3D
          ? desc
          : PlanDesc::batch_sharded3d(desc.shape.nx, desc.splits, desc.dir);
  auto& reg = PlanRegistry::of(group_);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // Restore the pristine input: the fused attempt may have left this
    // volume transformed or torn. Re-running a volume the batch already
    // finished is bit-identical (the simulator is deterministic in its
    // data path), just later on the clock.
    std::copy(snapshot[i].begin(), snapshot[i].end(), batch[i].data.begin());
    try {
      auto plan = reg.get_or_create(salvage);
      plan->set_exec_policy(cfg_.exec);
      plan->execute_host(batch[i].data);
      CompletionRecord c;
      c.id = batch[i].id;
      c.done_ms = group_.elapsed_ms();
      c.latency_ms = c.done_ms - batch[i].arrival_ms;
      c.strategy = strategy;
      rep.completions.push_back(c);
    } catch (const sim::SimError& e) {
      rep.failures.push_back(
          {batch[i].id, group_.elapsed_ms(), std::string(e.what())});
    }
  }
}

void FftService::sweep_and_probe() {
  group_.sweep_health();
  if (cfg_.probe_n == 0) return;
  for (std::size_t i = 0; i < group_.size(); ++i) {
    if (!group_.quarantined(i) || group_.device(i).lost()) continue;
    // A small Full-verify transform on the suspect card only: detection
    // strength is maximal (duplicate execution) and no client volume is
    // at risk. The volume is seeded per probe, so runs stay bit-exactly
    // reproducible.
    auto plan = PlanRegistry::of(group_.device(i))
                    .get_or_create(PlanDesc::out_of_core(
                        cfg_.probe_n, 2, gpufft::Direction::Forward));
    gpufft::ExecPolicy probe = cfg_.exec;
    probe.verify = gpufft::VerifyPolicy::Full;
    plan->set_exec_policy(probe);
    auto volume = random_complex<float>(
        cfg_.probe_n * cfg_.probe_n * cfg_.probe_n, 0x70726f6265 + ++probes_run_);
    const sim::DeviceHealth before = group_.device(i).health();
    bool ok = true;
    try {
      plan->execute_host(std::span<cxf>(volume));
    } catch (const sim::SimError&) {
      ok = false;
    }
    // "Clean" is strict: completed AND accrued zero new incidents (a
    // probe that needed retries to pass does not count).
    if (ok && group_.device(i).health().delta_since(before) == 0) {
      group_.note_clean_probe(i);
    } else {
      group_.note_failed_probe(i);
    }
  }
}

ServiceReport FftService::run() {
  ServiceReport rep;
  rep.topology = group_.topo().kind();
  rep.bisection_gbs = group_.topo().bisection_gbs();
  rep.rejected_queue_full = rejected_queue_full_;
  rep.rejected_bytes = rejected_bytes_;
  rep.max_queue_depth = peak_queue_depth_;
  const double t_begin = group_.elapsed_ms();
  // The members' ledgers accrue over the group's lifetime; this run's
  // counts are their difference around it.
  const sim::DeviceHealth health0 = group_.health_sum();
  const std::uint64_t quarantines0 = group_.quarantines_total();
  const std::uint64_t reinstatements0 = group_.reinstatements_total();

  while (!queue_.empty()) {
    // Idle the fleet until the oldest queued request has arrived, then
    // fuse every already-arrived request with the same description (in
    // queue order, up to max_batch) into one batch execution.
    const PlanDesc desc = queue_.front().desc;
    group_.advance_to_ms(queue_.front().arrival_ms);
    const double now = group_.elapsed_ms();
    std::vector<FftRequest> batch;
    // The oldest request is admitted unconditionally: it defines the
    // batch. (Its own arrival check would be redundant — and the ms<->ns
    // clock round-trip can land one ulp below arrival_ms.)
    batch.push_back(queue_.front());
    queue_.erase(queue_.begin());
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < cfg_.max_batch;) {
      if (it->desc == desc && it->arrival_ms <= now) {
        batch.push_back(*it);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    run_batch(batch, rep);
    // Health maintenance between batches: quarantine fresh offenders,
    // probe the quarantined, reinstate the recovered.
    sweep_and_probe();
  }

  rep.completed = rep.completions.size();
  rep.makespan_ms = group_.elapsed_ms() - t_begin;
  if (rep.makespan_ms > 0.0) {
    rep.volumes_per_sec =
        static_cast<double>(rep.completed) / (rep.makespan_ms * 1e-3);
  }
  std::vector<double> latencies;
  latencies.reserve(rep.completions.size());
  for (const auto& c : rep.completions) latencies.push_back(c.latency_ms);
  rep.latency = LatencySummary::of(latencies);
  // Post-drain probation: give quarantined members a bounded chance to
  // earn reinstatement now, so the next run starts with the fleet it
  // deserves. A member whose injector is still firing keeps failing its
  // probes and stays out. (After the makespan is taken — probe time is
  // maintenance, not service.)
  for (int round = 0; round < 4; ++round) {
    bool any_quarantined = false;
    for (std::size_t i = 0; i < group_.size(); ++i) {
      any_quarantined |= group_.quarantined(i) && !group_.device(i).lost();
    }
    if (!any_quarantined) break;
    sweep_and_probe();
  }
  const sim::DeviceHealth health = group_.health_sum();
  rep.device_lost_failovers =
      health.device_lost_failovers - health0.device_lost_failovers;
  rep.verify_failures = health.verify_failures - health0.verify_failures;
  rep.verify_recomputes =
      health.verify_recomputes - health0.verify_recomputes;
  rep.quarantines = group_.quarantines_total() - quarantines0;
  rep.reinstatements = group_.reinstatements_total() - reinstatements0;
  rep.member_health.reserve(group_.size());
  for (std::size_t i = 0; i < group_.size(); ++i) {
    rep.member_health.push_back({group_.device(i).health(),
                                 group_.device(i).lost(),
                                 group_.quarantined(i)});
  }
  rejected_queue_full_ = 0;
  rejected_bytes_ = 0;
  peak_queue_depth_ = 0;
  return rep;
}

}  // namespace repro::serve
