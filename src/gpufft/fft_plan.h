// The one base class every transform derives from: it holds the plan's
// description, device and last-run total and implements the shared entry
// points below; a concrete plan supplies its body (execute_impl).
//
// A plan is described by a PlanDesc (shape, direction, precision,
// algorithm — see plan_desc.h) and executed against caller-owned device
// buffers; its twiddle tables come shared from the ResourceCache and its
// workspace is leased per-execute from the cache's arena, so a plan holds
// no heavy resources while idle. Obtain plans through the PlanRegistry
// (registry.h) so equal descriptions share one instance.
//
// Entry points:
//   execute             one device-resident volume, in place
//   execute_async       same, enqueued on a sim::Stream so transfers and
//                       other streams' work can overlap it
//   execute_batch       many same-shape volumes back-to-back through one
//                       plan's resources (per-step times summed)
//   execute_host        a host-resident volume, staged through a leased
//                       device buffer (overridden by the out-of-core
//                       plan, whose volumes never fit on the card)
//   execute_batch_host  many host-resident volumes double-buffered across
//                       two streams: job i's transform overlaps job
//                       i+1's upload and job i-1's download wherever the
//                       card's engines allow (Section 4.4's suggestion)
//
// Both host entry points take dense volumes of exactly the plan's size and
// share one staging path, which re-pitches the X rows of a padded layout
// on the way up and back.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "gpufft/plan_desc.h"
#include "gpufft/types.h"
#include "gpufft/verify.h"
#include "sim/errors.h"

namespace repro::gpufft {

/// Run `fn`, stamping any escaping sim error with the plan's label so a
/// failure deep in a kernel pipeline names the transform it broke
/// ("plan[outofcore 512x512x512 fwd f32 splits=4]: 8800 GTS: ...").
/// The error object is mutated in flight and rethrown — no slicing, the
/// typed fields stay intact for the recovery layers above.
template <typename F>
auto with_plan_context(const PlanDesc& desc, F&& fn) {
  try {
    return fn();
  } catch (sim::SimError& e) {
    e.add_context("plan[" + desc.to_string() + "]");
    throw;
  }
}

/// Section 4.4's double-buffered offload pipeline, the one issue order
/// every host batch runs: job i uses stream and staging slot i % 2, and
/// the order is up(0), up(1), then run(i), down(i), up(i + 2) for each
/// job. Job i + 2's upload follows job i's download on the same stream, so
/// the stream itself orders the slot's reuse. Copy engines are FIFOs, so
/// this order also decides which transfer a shared engine serves first.
template <typename Up, typename Run, typename Down>
void issue_double_buffered(std::size_t jobs, Up&& up, Run&& run,
                           Down&& down) {
  for (std::size_t i = 0; i < std::min<std::size_t>(jobs, 2); ++i) up(i);
  for (std::size_t i = 0; i < jobs; ++i) {
    run(i);
    down(i);
    if (i + 2 < jobs) up(i + 2);
  }
}

/// Fold one volume's steps into a batch accumulator: per-step times sum,
/// and `traffic` carries each step's bandwidth x time so that
/// finish_accumulation re-derives the bandwidth of the summed rows.
void accumulate_steps(std::vector<StepTiming>& total,
                      std::vector<double>& traffic,
                      const std::vector<StepTiming>& steps);
void finish_accumulation(std::vector<StepTiming>& total,
                         const std::vector<double>& traffic);

template <typename T>
class FftPlanT {
 public:
  virtual ~FftPlanT() = default;

  /// Transform `data` (device-resident, natural x-fastest layout) in
  /// place. Returns per-step timings (Table 6/7 rows). Non-virtual: this
  /// is the verification seam — with ExecPolicy::verify enabled the
  /// result is checked against the plan's ABFT invariant and recomputed
  /// (bounded) on a failure before ResultVerificationError surfaces; with
  /// the default VerifyPolicy::Off it is a direct call to the plan body,
  /// bit-identical in results and timeline to the unverified stack.
  std::vector<StepTiming> execute(DeviceBuffer<cx<T>>& data);

  /// Set per-execute options (verification + staging policy). Throws
  /// sim::InvalidPolicyError (naming the field) on invalid values.
  void set_exec_policy(const ExecPolicy& policy) {
    validate_policy(policy);
    policy_ = policy;
  }
  [[nodiscard]] const ExecPolicy& exec_policy() const { return policy_; }

  /// Enqueue the transform's kernels on `stream` instead of the serial
  /// default queue. Functional effects are immediate (results are
  /// bit-identical to execute()); the returned steps carry the same
  /// per-kernel durations, while the *schedule* — and hence the device's
  /// elapsed makespan — is resolved against other streams by the engine
  /// scheduler. The default implementation routes every h2d/d2h/launch of
  /// execute() to `stream` via Device::StreamGuard, so all plans are
  /// stream-capable without bespoke code.
  virtual std::vector<StepTiming> execute_async(DeviceBuffer<cx<T>>& data,
                                                sim::Stream& stream);

  /// Run every volume through this one plan's resources back-to-back.
  /// Returned steps carry per-step times summed across the batch, and
  /// last_total_ms() is their sum.
  std::vector<StepTiming> execute_batch(
      std::span<DeviceBuffer<cx<T>>* const> volumes);

  /// Transform a host-resident volume: upload into a leased staging
  /// buffer, execute, download. `data` holds host_elements() elements.
  /// The out-of-core plan overrides this with its streamed two-phase
  /// algorithm.
  virtual std::vector<StepTiming> execute_host(std::span<cx<T>> data);

  /// Transform many host-resident same-shape volumes, double-buffering
  /// uploads/downloads across two streams (two staging leases) so that
  /// transfers overlap the on-card transforms exactly as the card's DMA
  /// engines allow: a 1-engine G8x serializes the up/down copies, a
  /// 2-engine part pipelines all three phases. Returned steps are the
  /// per-kernel sums (as execute_batch); last_total_ms() reports the
  /// overlapped makespan. Overridden by the out-of-core plan, whose
  /// volumes cannot be staged on the card.
  virtual std::vector<StepTiming> execute_batch_host(
      std::span<const std::span<cx<T>>> volumes);

  /// The description this plan was built from.
  [[nodiscard]] const PlanDesc& desc() const { return desc_; }

  /// Device the plan executes on.
  [[nodiscard]] Device& device() const { return dev_; }

  /// Elements of the complex device buffer execute() expects — the plan's
  /// layout made first-class: shape.volume() for Complex plans, the
  /// padded (nx/2+1)*ny*nz rows for RealHalfSpectrum plans.
  [[nodiscard]] std::size_t buffer_elements() const {
    return desc_.buffer_elements();
  }

  /// Elements of each volume the host entry points take: buffer_elements()
  /// less a padded layout's row padding, since callers hand over dense
  /// rows.
  [[nodiscard]] std::size_t host_elements() const {
    const Shape3 s = desc_.shape;
    return buffer_elements() - (desc_.row_pitch() - s.nx) * s.ny * s.nz;
  }

  /// Total simulated milliseconds of the last execute or batch.
  [[nodiscard]] double last_total_ms() const { return last_total_ms_; }

 protected:
  FftPlanT(Device& dev, const PlanDesc& desc) : dev_(dev), desc_(desc) {}

  /// Base of the plans that launch the paper's kernels under `tune`:
  /// `desc` takes T's precision and carries `tune`.
  FftPlanT(Device& dev, PlanDesc desc, const TuneConfig& tune);

  /// The plan body: one unverified in-place transform. Concrete plans
  /// override this (not execute()); the public entry point applies the
  /// ExecPolicy around it.
  virtual std::vector<StepTiming> execute_impl(DeviceBuffer<cx<T>>& data) = 0;

  /// Sum `steps` into last_total_ms_ and return it.
  double finish(const std::vector<StepTiming>& steps) {
    last_total_ms_ = 0.0;
    for (const auto& s : steps) last_total_ms_ += s.ms;
    return last_total_ms_;
  }

  Device& dev_;
  PlanDesc desc_;
  double last_total_ms_ = 0.0;

 private:
  std::vector<StepTiming> execute_batch_host_impl(
      std::span<const std::span<cx<T>>> volumes);

  /// Throw unless `data` holds host_elements() elements.
  void check_host_volume(std::span<const cx<T>> data) const;

  /// Move a host volume up to / back from `staging` on `stream`
  /// (nullptr: the default queue) under the policy's staging bounds. A
  /// padded layout goes through a re-pitched host copy, so
  /// buffer_elements() elements cross the link either way.
  void stage_up(std::span<const cx<T>> data, DeviceBuffer<cx<T>>& staging,
                sim::Stream* stream);
  void stage_down(DeviceBuffer<cx<T>>& staging, std::span<cx<T>> data,
                  sim::Stream* stream);

  ExecPolicy policy_;
};

using FftPlan = FftPlanT<float>;

extern template class FftPlanT<float>;
extern template class FftPlanT<double>;

}  // namespace repro::gpufft
