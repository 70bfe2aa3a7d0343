// Streams: ordered queues of timed device operations (cudaStream
// analogue), the substrate of the Section 4.4 asynchronous-transfer model.
//
// Ops within one stream execute in submission order; ops on different
// streams may overlap, but only where the hardware has an engine for each:
// the device has ONE compute engine (kernels from all streams serialize on
// it, in submission order) and one or two DMA engines per GpuSpec
// (`dma_engines`; G8x parts have a single copy engine shared by both
// directions, later parts dedicate one per direction). Each engine serves
// the operations submitted to it strictly in submission order (a FIFO, as
// on real queues), so a stream's op starts at
//
//   max(stream tail, engine free time, submission-time clock, event waits)
//
// and the schedule is resolved eagerly at enqueue. Functional effects
// (data movement, kernel math) always happen immediately in program
// order, so results are bit-identical to a serial run — streams change
// only the simulated timeline.
//
// Destroying a Stream synchronizes it: its timeline folds into the
// device's default clock, so no simulated time is ever lost.
//
// Error model (CUDA-style sticky stream errors): when an asynchronous
// operation fails — e.g. the fault injector kills a transfer mid-flight —
// the failure is recorded on the stream instead of thrown at the enqueue
// site, exactly as a real async CUDA error surfaces later. The first
// failure sticks: Device::sync() on the stream rethrows it, recording an
// Event captures it, waiting on a failed Event spreads it, and any further
// work enqueued on the poisoned stream fails fast without running (its
// functional effect is suppressed, so a half-poisoned pipeline cannot
// write stale bytes). Unlike CUDA, the error is scoped to the stream and
// clear_error() is an explicit recovery point — that deviation is what
// lets the staging layer retry a transient fault in place.
#pragma once

#include <exception>
#include <string>
#include <vector>

#include "sim/event.h"

namespace repro::sim {

class Device;

/// Which hardware engine an operation occupies.
enum class Engine { Compute, DmaH2D, DmaD2H };

[[nodiscard]] const char* engine_name(Engine e);

/// One operation scheduled on a stream's timeline.
struct StreamOp {
  std::string name;
  Engine engine{Engine::Compute};
  double start_ns{};
  double end_ns{};

  [[nodiscard]] double start_ms() const { return start_ns * 1e-6; }
};

class Stream {
 public:
  /// Create a stream on `dev`; the device tracks it until destruction.
  explicit Stream(Device& dev);
  ~Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  [[nodiscard]] Device& device() const { return *dev_; }

  /// Time the last enqueued operation completes (the stream's tail).
  [[nodiscard]] double ready_ms() const { return ready_ns_ * 1e-6; }

  /// Record `e` at the stream's current tail. A poisoned stream's sticky
  /// error is captured into the event (cudaEventRecord on a failed
  /// stream).
  void record(Event& e) {
    e.time_ns_ = ready_ns_;
    e.recorded_ = true;
    e.error_ = error_;
  }

  /// Order all subsequently enqueued work on this stream after `e`.
  /// No-op when `e` was never recorded (CUDA semantics). Waiting on an
  /// event recorded on a failed stream poisons this stream too — failure
  /// propagates along the same dependency edges the schedule does.
  void wait(const Event& e) {
    if (!e.recorded_) return;
    if (e.time_ns_ > ready_ns_) ready_ns_ = e.time_ns_;
    if (e.error_ && !error_) error_ = e.error_;
  }

  /// Order all subsequently enqueued work after the absolute timeline
  /// point `ms` (device-clock milliseconds). This is the cross-device
  /// fencing primitive of sim::DeviceGroup: member devices share one time
  /// origin, so "wait until another card's download has landed in host
  /// memory" is a wait-until on the destination stream. A point already
  /// in the past is a no-op (as Event::wait).
  void wait_until_ms(double ms) {
    ready_ns_ = std::max(ready_ns_, ms * 1e6);
  }

  /// Operations scheduled on this stream since the last
  /// Device::reset_clock() (start/end resolved against engine contention).
  [[nodiscard]] const std::vector<StreamOp>& ops() const { return ops_; }

  /// Whether an asynchronous operation on this stream has failed and the
  /// error has not been cleared (cudaStreamQuery != cudaSuccess).
  [[nodiscard]] bool poisoned() const { return error_ != nullptr; }

  /// The sticky error, or nullptr when the stream is healthy.
  [[nodiscard]] std::exception_ptr error() const { return error_; }

  /// Record an asynchronous failure on this stream. The first error
  /// sticks; later ones are dropped (CUDA reports the first).
  void fail(std::exception_ptr e) {
    if (!error_) error_ = std::move(e);
  }

  /// Explicit recovery point: acknowledge the sticky error so the stream
  /// accepts work again. The simulated timeline is untouched — time spent
  /// on the failed attempt stays charged.
  void clear_error() { error_ = nullptr; }

 private:
  friend class Device;

  Device* dev_;
  double ready_ns_ = 0.0;
  std::vector<StreamOp> ops_;
  std::exception_ptr error_;
};

}  // namespace repro::sim
