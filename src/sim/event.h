// Events: recorded points on a stream's timeline (cudaEvent analogue).
//
// An Event is recorded at a stream's current tail (Stream::record) and
// later waited on from another stream (Stream::wait), which orders all of
// that stream's subsequent operations after the recorded point. Waiting on
// a never-recorded event is a no-op, exactly as in CUDA.
//
// Events also carry the error state of the recording stream: recording on
// a poisoned stream captures its sticky error, ok() surfaces it, and
// waiting on a failed event poisons the waiting stream — so failure
// propagates along the same edges the schedule does.
#pragma once

#include <exception>

namespace repro::sim {

class Stream;

class Event {
 public:
  Event() = default;

  /// Whether record() has captured a timeline position yet.
  [[nodiscard]] bool recorded() const { return recorded_; }

  /// Timeline position (simulated ms) of the last record(). Only
  /// meaningful when recorded().
  [[nodiscard]] double time_ms() const { return time_ns_ * 1e-6; }

  /// False when the recording stream was poisoned at record time
  /// (cudaEventQuery returning the stream's sticky error).
  [[nodiscard]] bool ok() const { return error_ == nullptr; }
  [[nodiscard]] std::exception_ptr error() const { return error_; }

 private:
  friend class Stream;

  double time_ns_ = 0.0;
  bool recorded_ = false;
  std::exception_ptr error_;
};

}  // namespace repro::sim
