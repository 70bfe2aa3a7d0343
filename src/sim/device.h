// The simulated CUDA device.
//
// Owns the virtual device address space, enforces the card's memory
// capacity, accounts PCIe transfer time on h2d/d2h, and runs kernel
// launches: every block executes functionally, the sampled prefix of
// blocks is instrumented, and the timing model converts the observed
// statistics into simulated time on the device clock. As on the hardware,
// a grid's blocks run concurrently, on a process-wide pool of host threads
// (one per CPU the process may use); each block fills its own statistics
// and the launch merges them in block order, so every result and every
// simulated time is the one a serial block loop would give.
//
// Execution model (see stream.h): transfers and launches are timed
// operations on one of the device's engines — a single compute engine plus
// spec().dma_engines copy engines (1 on the G8x cards, where uploads and
// downloads share the engine; 2 on later parts). By default operations run
// on the serial default queue, advancing the clock synchronously exactly
// as before streams existed. The *_async variants (or an active
// StreamGuard) enqueue the operation on a Stream instead: the functional
// effect is still immediate, but the operation's simulated time is
// resolved by the event-driven scheduler — it starts at
// max(stream tail, engine free, submission clock) — so concurrent streams
// overlap exactly where the hardware has engines for it and serialize
// where it does not. elapsed_ms() reports the makespan across the default
// queue and every live stream. Default-queue operations synchronize with
// all streams first (CUDA legacy default-stream semantics), which reduces
// to the old serial behaviour bit-for-bit when no streams are in flight.
//
// Fault model (see fault.h / errors.h): a FaultInjector can be attached
// with faults(); until then every hook below is one null-pointer test and
// the device is bit-identical — in results AND simulated timeline — to a
// build without the fault machinery. Failed operations on the serial
// queue throw typed sim errors; failed asynchronous operations poison
// their stream CUDA-style (stream.h) and surface at sync(). A fired
// DeviceLost is sticky: lost() flips on and every subsequent allocation,
// transfer, or launch throws DeviceLostError.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "sim/buffer.h"
#include "sim/errors.h"
#include "sim/fault.h"
#include "sim/health.h"
#include "sim/kernel.h"
#include "sim/pcie.h"
#include "sim/spec.h"
#include "sim/stream.h"
#include "sim/timing.h"

namespace repro::sim {

class Device {
 public:
  explicit Device(GpuSpec spec);
  ~Device();

  [[nodiscard]] const GpuSpec& spec() const { return spec_; }
  [[nodiscard]] SimOptions& options() { return options_; }

  /// Position of this device within its DeviceGroup (-1 outside a group).
  /// Set by DeviceGroup at construction; carried in every typed error.
  [[nodiscard]] int ordinal() const { return ordinal_; }
  void set_ordinal(int ordinal) { ordinal_ = ordinal; }
  [[nodiscard]] DeviceRef device_ref() const {
    return DeviceRef{spec_.name, ordinal_};
  }

  /// The device's fault injector, created lazily on first use. A device
  /// that never calls this carries no injector at all and pays nothing.
  FaultInjector& faults() {
    if (faults_ == nullptr) faults_ = std::make_unique<FaultInjector>();
    return *faults_;
  }
  /// True when an injector exists and has at least one fault armed. The
  /// staging layer gates its host-side checksum verification on this, so
  /// fault-free runs skip that real-CPU cost entirely.
  [[nodiscard]] bool fault_injection_armed() const {
    return faults_ != nullptr && faults_->armed();
  }
  /// True once an injected DeviceLost has fired: the card fell off the
  /// bus and every further operation throws DeviceLostError. Freeing
  /// memory stays allowed so RAII cleanup never throws.
  [[nodiscard]] bool lost() const { return lost_; }

  /// The device's health scoreboard (see sim/health.h): incident counters
  /// the recovery layers attribute here, read by the quarantine sweep.
  [[nodiscard]] DeviceHealth& health() { return health_; }
  [[nodiscard]] const DeviceHealth& health() const { return health_; }

  /// Allocate n elements of T; throws OutOfDeviceMemory past capacity.
  template <typename T>
  DeviceBuffer<T> alloc(std::size_t n) {
    return DeviceBuffer<T>(this, allocate_raw(n * sizeof(T)), n);
  }

  [[nodiscard]] std::size_t allocated_bytes() const {
    return allocated_bytes_;
  }
  /// Largest concurrently-allocated footprint since construction (or the
  /// last reset_peak_stats()). NOT cleared by reset_clock(): the clock
  /// reset is a timing concern, while the allocator statistics are
  /// device-lifetime counters — benches that reuse one device across
  /// configurations call reset_peak_stats() explicitly.
  [[nodiscard]] std::size_t peak_allocated_bytes() const {
    return peak_allocated_bytes_;
  }
  /// Number of alloc<T>() calls since construction (or the last
  /// reset_peak_stats()); device-lifetime, see peak_allocated_bytes().
  [[nodiscard]] std::uint64_t alloc_count() const { return alloc_count_; }
  /// Restart the allocator statistics: the peak footprint re-anchors to
  /// the bytes currently allocated and the alloc counter zeroes.
  void reset_peak_stats();
  [[nodiscard]] std::size_t memory_capacity() const {
    return spec_.device_memory_bytes;
  }

  /// Device-lifetime singleton slot for higher layers (e.g. the gpufft
  /// resource cache): one instance of T per device, created on first use
  /// with T(Device&). Keeps sim free of dependencies on those layers.
  template <typename T>
  T& local() {
    const std::type_index key(typeid(T));
    auto it = locals_.find(key);
    if (it == locals_.end()) {
      it = locals_.emplace(key, std::make_shared<T>(*this)).first;
    }
    return *static_cast<T*>(it->second.get());
  }

  /// Host-to-device copy into `dst` starting at element `dst_offset`;
  /// the PCIe transfer time lands on the active stream (default: the
  /// serial queue, advancing the clock synchronously). With an injector
  /// attached a transfer can fail transiently (time charged, payload
  /// undelivered) or deliver a corrupted payload — see fault.h.
  template <typename T>
  void h2d(DeviceBuffer<T>& dst, std::span<const T> src,
           std::size_t dst_offset = 0) {
    REPRO_CHECK(dst_offset + src.size() <= dst.size());
    const std::size_t bytes = src.size() * sizeof(T);
    if (faults_ != nullptr &&
        !transfer_admitted(TransferDir::HostToDevice, bytes)) {
      return;  // transient fault: time charged, payload not delivered
    }
    std::copy(src.begin(), src.end(), dst.data() + dst_offset);
    record_transfer(TransferDir::HostToDevice, bytes);
    if (faults_ != nullptr) maybe_corrupt(dst.data() + dst_offset, bytes);
  }

  /// Device-to-host copy from `src` starting at element `src_offset`.
  template <typename T>
  void d2h(std::span<T> dst, const DeviceBuffer<T>& src,
           std::size_t src_offset = 0) {
    REPRO_CHECK(src_offset + dst.size() <= src.size());
    const std::size_t bytes = dst.size() * sizeof(T);
    if (faults_ != nullptr &&
        !transfer_admitted(TransferDir::DeviceToHost, bytes)) {
      return;
    }
    std::copy(src.data() + src_offset, src.data() + src_offset + dst.size(),
              dst.begin());
    record_transfer(TransferDir::DeviceToHost, bytes);
    if (faults_ != nullptr) maybe_corrupt(dst.data(), bytes);
  }

  /// Asynchronous copies: enqueue the transfer on `stream` (the data
  /// still moves immediately — see stream.h). Returns the transfer's
  /// simulated duration in ms.
  template <typename T>
  double h2d_async(DeviceBuffer<T>& dst, std::span<const T> src,
                   Stream& stream, std::size_t dst_offset = 0) {
    const StreamGuard g(*this, stream);
    h2d(dst, src, dst_offset);
    return last_op_ms_;
  }
  template <typename T>
  double d2h_async(std::span<T> dst, const DeviceBuffer<T>& src,
                   Stream& stream, std::size_t src_offset = 0) {
    const StreamGuard g(*this, stream);
    d2h(dst, src, src_offset);
    return last_op_ms_;
  }

  /// Run a kernel: functional execution of every block + timing estimate.
  /// The launch occupies the compute engine on the active stream (default:
  /// the serial queue) and is appended to the launch history. If a block
  /// throws, the lowest such block's exception propagates once every
  /// block in flight has finished, and nothing is charged or recorded.
  LaunchResult launch(Kernel& kernel);

  /// Enqueue the launch on `stream` instead of the serial queue.
  LaunchResult launch_async(Kernel& kernel, Stream& stream) {
    const StreamGuard g(*this, stream);
    return launch(kernel);
  }

  /// Enqueue a purely-timed operation (no functional work) of `ms`
  /// simulated milliseconds on `stream`'s `engine`. This is the modelling
  /// primitive used to replay measured phase times through the real
  /// scheduler (see gpufft::measure_offload). Returns the op's start ms.
  double submit_timed(Stream& stream, Engine engine, double ms,
                      std::string name);

  /// Block the default queue until `stream`'s work completes: the clock
  /// advances to the stream's tail (cudaStreamSynchronize).
  void sync(Stream& stream);
  /// Synchronize every live stream (cudaDeviceSynchronize).
  void sync_all();

  /// Makespan of everything submitted since the last reset: the serial
  /// clock joined with every live stream's timeline. Identical to the old
  /// serial clock when no streams are used.
  [[nodiscard]] double elapsed_ms() const;

  /// Earliest time a new op could start on `e`, ignoring stream tails:
  /// the engine FIFO's free point joined with the submission clock.
  /// sim::time_transfer uses this to reserve a fabric link at the moment
  /// the sending DMA engine can actually drive it.
  [[nodiscard]] double next_free_ms(Engine e) const {
    double ns = clock_ns_;
    switch (e) {
      case Engine::Compute:
        ns = std::max(ns, compute_free_ns_);
        break;
      case Engine::DmaH2D:
        ns = std::max(ns, dma_free_ns_[0]);
        break;
      default:
        ns = std::max(ns, dma_free_ns_[spec_.dma_engines == 2 ? 1 : 0]);
        break;
    }
    return ns * 1e-6;
  }

  [[nodiscard]] double h2d_ms() const { return h2d_ns_ * 1e-6; }
  [[nodiscard]] double d2h_ms() const { return d2h_ns_ * 1e-6; }
  [[nodiscard]] std::uint64_t h2d_bytes() const { return h2d_bytes_; }
  [[nodiscard]] std::uint64_t d2h_bytes() const { return d2h_bytes_; }
  /// Reset the timing state: clock, engines, transfer totals, launch
  /// history, and the timeline of every live stream. Allocator statistics
  /// (peak_allocated_bytes, alloc_count) are device-lifetime counters and
  /// are NOT touched — use reset_peak_stats() for those.
  void reset_clock();

  /// Advance the submission clock to at least `ms` (no-op when already
  /// past). Models host-side idle time: work submitted afterwards starts
  /// no earlier than `ms`, which is how the FFT service anchors a
  /// request's processing to its simulated arrival time.
  void advance_clock_to_ms(double ms);

  /// Per-launch records since the last reset (for per-step tables).
  [[nodiscard]] const std::vector<LaunchResult>& history() const {
    return history_;
  }

  /// RAII scope that routes h2d/d2h/launch on `dev` to `stream` — the
  /// mechanism FftPlan::execute_async uses to thread a stream through an
  /// arbitrary plan without changing its kernel call sites.
  class StreamGuard {
   public:
    StreamGuard(Device& dev, Stream& stream)
        : dev_(dev), prev_(dev.active_stream_) {
      REPRO_CHECK(&stream.device() == &dev);
      dev_.active_stream_ = &stream;
    }
    ~StreamGuard() { dev_.active_stream_ = prev_; }
    StreamGuard(const StreamGuard&) = delete;
    StreamGuard& operator=(const StreamGuard&) = delete;

   private:
    Device& dev_;
    Stream* prev_;
  };

 private:
  friend struct AllocationAccess;
  friend class Stream;
  template <typename T>
  friend class DeviceBuffer;

  Allocation allocate_raw(std::size_t bytes);
  void free_raw(const Allocation& a);

  void register_stream(Stream* s);
  void unregister_stream(Stream* s);

  /// The scheduler: place an `ns`-long op on `engine` for `stream`
  /// (nullptr = the serial default queue). Returns the start time in ns.
  double schedule(Stream* stream, Engine engine, double ns,
                  std::string name);
  void record_transfer(TransferDir dir, std::uint64_t bytes);
  [[nodiscard]] double& engine_free_ns(Engine e);

  // Fault hooks — only reached when faults_ != nullptr.
  void check_stream_ok() const;  ///< fail fast on a poisoned stream
  void check_alive();            ///< lost-state check + DeviceLost fire
  bool transfer_admitted(TransferDir dir, std::size_t bytes);
  bool launch_admitted(const std::string& kernel_name);
  void maybe_corrupt(void* payload, std::size_t bytes);

  GpuSpec spec_;
  SimOptions options_;
  std::uint64_t next_addr_ = 512;  // leave address 0 unused
  std::size_t allocated_bytes_ = 0;
  double clock_ns_ = 0.0;
  double h2d_ns_ = 0.0;
  double d2h_ns_ = 0.0;
  std::uint64_t h2d_bytes_ = 0;
  std::uint64_t d2h_bytes_ = 0;
  std::size_t peak_allocated_bytes_ = 0;
  std::uint64_t alloc_count_ = 0;
  std::vector<LaunchResult> history_;
  // Engine FIFOs: when each engine finishes its queued work.
  double compute_free_ns_ = 0.0;
  double dma_free_ns_[2] = {0.0, 0.0};
  Stream* active_stream_ = nullptr;
  std::vector<Stream*> streams_;
  double last_op_ms_ = 0.0;  ///< duration of the last scheduled op
  int ordinal_ = -1;
  bool lost_ = false;
  DeviceHealth health_;
  // Null until faults() is first called; every hook above gates on this,
  // so the injector-free path is a single pointer test (no #ifdef needed).
  std::unique_ptr<FaultInjector> faults_;
  // Last member so the slots (which may own DeviceBuffers) are destroyed
  // while the allocator bookkeeping above is still alive.
  std::unordered_map<std::type_index, std::shared_ptr<void>> locals_;
};

template <typename T>
void DeviceBuffer<T>::release() {
  if (dev_ != nullptr) {
    dev_->free_raw(alloc_);
    dev_ = nullptr;
    host_.clear();
  }
}

}  // namespace repro::sim
