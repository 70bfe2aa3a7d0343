// A throughput-oriented FFT serving front end over a device group.
//
// FftService accepts transform requests from many (simulated) clients —
// mixed shapes and kinds: complex sharded volumes, real half-spectrum
// volumes, single-card out-of-core volumes — admits them against a queue
// bound and the registry's device-memory byte watermark, and drains the
// queue through PlanRegistry::of(group) plans:
//
//   - complex 3-D requests are fused into batches of identical
//     descriptions and routed by choose_batch_strategy(): small batches
//     shard one volume across the fleet (latency), fleet-sized batches
//     deal whole volumes to members (throughput), with the pipelined
//     all-to-all overlap when sharding;
//   - out-of-core requests are dealt round-robin to members through the
//     batch-sharded plan (its members ARE single-card out-of-core plans);
//   - real-transform requests run the sharded real plan per volume.
//
// Time is simulated end to end: a request whose arrival is in the future
// idles the fleet via DeviceGroup::advance_to_ms, so the report's
// volumes/sec and p50/p99 latencies include genuine queueing delay, not
// just service time. Mid-stream DeviceLost faults degrade capacity (the
// plans fail over to the surviving members) without dropping any admitted
// request; the report carries the failover count observed during the run.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "gpufft/batch_sharded.h"
#include "gpufft/registry.h"
#include "gpufft/sharded.h"
#include "gpufft/verify.h"
#include "sim/device_group.h"
#include "sim/health.h"

namespace repro::serve {

/// One client transform request: a caller-owned host volume plus the plan
/// description to apply. `data.size()` must equal `desc.buffer_elements()`.
struct FftRequest {
  std::uint64_t id = 0;
  gpufft::PlanDesc desc;
  std::span<cxf> data;
  double arrival_ms = 0.0;  ///< on the group's shared simulated timeline
};

/// What happened to a submit() call.
enum class Admission {
  Accepted,
  RejectedQueueFull,  ///< queue_depth() was at max_queue_depth
  RejectedBytes,      ///< plan headroom exceeds the byte watermark
};

struct ServiceConfig {
  std::size_t max_queue_depth = 64;
  /// Device-memory budget (bytes, 0 = unlimited): armed on the group
  /// registry (PR 5 watermark semantics) and used as the admission gate —
  /// a request whose plan headroom alone exceeds it can never run.
  std::size_t byte_watermark = 0;
  /// Most volumes fused into one batch execution.
  std::size_t max_batch = 8;
  /// Execution policy applied to every plan the service runs: the ABFT
  /// verification mode plus the staging retry budget. Validated at
  /// construction (sim::InvalidPolicyError names the bad field).
  gpufft::ExecPolicy exec;
  /// Quarantine thresholds armed on the group's health scoreboard.
  sim::HealthPolicy health;
  /// Cube edge of the probe transform run on quarantined members between
  /// batches (VerifyPolicy::Full; must be an even pow2-splittable edge).
  /// 0 disables probing — quarantined members then never reinstate.
  std::size_t probe_n = 16;
};

/// One drained request with its timing, for callers that want the ledger.
struct CompletionRecord {
  std::uint64_t id = 0;
  double done_ms = 0.0;     ///< completion instant on the group timeline
  double latency_ms = 0.0;  ///< done - arrival (queueing + service)
  gpufft::BatchStrategy strategy = gpufft::BatchStrategy::Shard;
};

/// One admitted request that could not be completed: its plan raised a
/// typed sim error even after the recovery layers' bounded retries. The
/// request's volume is left in an unspecified state; it was never
/// reported as a completion (no silent wrong answers).
struct FailureRecord {
  std::uint64_t id = 0;
  double done_ms = 0.0;  ///< when the service gave up, group timeline
  std::string error;     ///< the typed error's message (with context)
};

/// Health snapshot of one group member at the end of a run.
struct MemberHealthRecord {
  sim::DeviceHealth health;
  bool lost = false;
  bool quarantined = false;
};

struct ServiceReport {
  std::size_t completed = 0;
  std::size_t rejected_queue_full = 0;
  std::size_t rejected_bytes = 0;
  std::size_t max_queue_depth = 0;  ///< high-water mark of queued requests
  double makespan_ms = 0.0;         ///< drain start to last completion
  double volumes_per_sec = 0.0;
  LatencySummary latency;
  std::uint64_t device_lost_failovers = 0;  ///< during this run
  std::uint64_t verify_failures = 0;        ///< ABFT checks failed, this run
  std::uint64_t verify_recomputes = 0;      ///< bounded recomputes, this run
  std::uint64_t quarantines = 0;            ///< members quarantined, this run
  std::uint64_t reinstatements = 0;         ///< members reinstated, this run
  /// The fleet's interconnect, for dashboards correlating throughput
  /// with the fabric: Topology::kind() and its closed-form bisection.
  std::string topology;
  double bisection_gbs = 0.0;
  std::vector<CompletionRecord> completions;
  std::vector<FailureRecord> failures;  ///< typed, per admitted request
  std::vector<MemberHealthRecord> member_health;  ///< indexed by ordinal
};

class FftService {
 public:
  explicit FftService(sim::DeviceGroup& group, ServiceConfig cfg = {});

  /// Admission control only — no execution happens here. Accepted
  /// requests are queued in arrival order; rejected ones are counted in
  /// the next run()'s report and never touched again.
  Admission submit(const FftRequest& req);

  /// Drain the queue: advance simulated time to each arrival, fuse
  /// batches, execute, and account latencies. Returns the run's report
  /// and clears the queue and rejection counters.
  ServiceReport run();

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

 private:
  /// Phase probes are pure functions of (spec, n, shards, dir); cache
  /// them so steady-state serving pays no repeated probing.
  const gpufft::ShardPhases& phases_for(const gpufft::PlanDesc& desc);

  /// Execute one same-description batch, appending completion records.
  /// A typed sim error inside the fused execution falls back to
  /// per-request salvage so one poisoned volume cannot take down its
  /// batchmates; requests that still fail are appended as FailureRecords.
  void run_batch(const std::vector<FftRequest>& batch, ServiceReport& rep);

  /// One request at a time with the inputs restored from `snapshot`;
  /// the per-batch salvage path behind run_batch.
  void run_salvage(const std::vector<FftRequest>& batch,
                   const std::vector<std::vector<cxf>>& snapshot,
                   gpufft::BatchStrategy strategy, ServiceReport& rep);

  /// Health maintenance between batches: sweep the scoreboard, then run
  /// one Full-verify probe transform per quarantined member and feed the
  /// verdicts back (clean streaks reinstate).
  void sweep_and_probe();

  sim::DeviceGroup& group_;
  ServiceConfig cfg_;
  std::deque<FftRequest> queue_;
  std::size_t rejected_queue_full_ = 0;
  std::size_t rejected_bytes_ = 0;
  std::size_t peak_queue_depth_ = 0;
  std::uint64_t probes_run_ = 0;  ///< seeds the deterministic probe volumes
  std::unordered_map<gpufft::PlanDesc, gpufft::ShardPhases,
                     gpufft::PlanDescHash>
      phases_;
};

}  // namespace repro::serve
