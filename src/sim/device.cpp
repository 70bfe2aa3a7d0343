#include "sim/device.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

namespace repro::sim {
namespace {

/// The host threads that run a launch's blocks, as the hardware runs a
/// grid's blocks with no order between them: one per CPU in the process's
/// affinity mask, the launching thread included, so the pool owns one
/// fewer worker than that. It holds no simulation state, only the job in
/// flight. Workers sleep on a condition variable between jobs and are
/// joined when the process exits.
class BlockPool {
 public:
  explicit BlockPool(unsigned threads) {
    workers_.reserve(threads - 1);
    for (unsigned i = 1; i < threads; ++i) {
      try {
        workers_.emplace_back([this] { work(); });
      } catch (const std::system_error&) {
        break;  // run with the workers the system would start
      }
    }
  }
  ~BlockPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& w : workers_) w.join();
  }
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  /// Run `job` on the calling thread and on up to `helpers` workers at
  /// once; return when every run of it has returned. `job` claims work
  /// until none is left and must not throw, so once the caller's own run
  /// returns, a worker that has not started yet would find nothing: its
  /// place is withdrawn rather than waited for. A job submitted while
  /// another is in flight (from a second host thread) runs on its calling
  /// thread alone.
  void run(unsigned helpers, const std::function<void()>& job) {
    std::unique_lock<std::mutex> turn(turn_, std::try_to_lock);
    helpers = std::min<unsigned>(helpers,
                                 static_cast<unsigned>(workers_.size()));
    if (!turn.owns_lock() || helpers == 0) {
      job();
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      open_ = helpers;
    }
    for (unsigned i = 0; i < helpers; ++i) wake_.notify_one();
    job();
    std::unique_lock<std::mutex> lock(mutex_);
    open_ = 0;
    done_.wait(lock, [this] { return running_ == 0; });
    job_ = nullptr;
  }

 private:
  void work() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wake_.wait(lock, [this] { return stopping_ || open_ > 0; });
      if (stopping_) return;
      --open_;
      ++running_;
      const std::function<void()>& job = *job_;
      lock.unlock();
      job();
      lock.lock();
      if (--running_ == 0) done_.notify_one();
    }
  }

  std::mutex turn_;  ///< held by the one launch using the workers
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  // Guarded by mutex_.
  const std::function<void()>* job_ = nullptr;
  unsigned open_ = 0;     ///< places in job_ no worker has taken yet
  unsigned running_ = 0;  ///< workers inside job_
  bool stopping_ = false;
  std::vector<std::thread> workers_;  ///< last: the threads use the above
};

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

BlockPool& block_pool() {
  static BlockPool pool(affinity_cpus());
  return pool;
}

}  // namespace

Device::Device(GpuSpec spec) : spec_(std::move(spec)) {
  REPRO_CHECK_MSG(spec_.dma_engines == 1 || spec_.dma_engines == 2,
                  "GpuSpec.dma_engines must be 1 or 2");
  REPRO_CHECK_MSG(spec_.shmem_banks > 0, "GpuSpec.shmem_banks must be > 0");
}

Device::~Device() {
  // Detach any streams that outlive the device (their destructors become
  // no-ops instead of touching freed memory).
  for (Stream* s : streams_) s->dev_ = nullptr;
}

Allocation Device::allocate_raw(std::size_t bytes) {
  if (faults_ != nullptr) {
    check_alive();
    if (faults_->fire(FaultKind::AllocFail)) {
      throw OutOfDeviceMemory(device_ref(), bytes,
                              spec_.device_memory_bytes - allocated_bytes_,
                              spec_.device_memory_bytes, /*injected=*/true);
    }
  }
  if (allocated_bytes_ + bytes > spec_.device_memory_bytes) {
    throw OutOfDeviceMemory(device_ref(), bytes,
                            spec_.device_memory_bytes - allocated_bytes_,
                            spec_.device_memory_bytes);
  }
  // Bump allocator over a virtual address space, 256-byte aligned so the
  // coalescing alignment rules behave as on real allocations.
  Allocation a;
  a.base_addr = (next_addr_ + 255) / 256 * 256;
  a.bytes = bytes;
  next_addr_ = a.base_addr + bytes;
  allocated_bytes_ += bytes;
  peak_allocated_bytes_ = std::max(peak_allocated_bytes_, allocated_bytes_);
  ++alloc_count_;
  return a;
}

void Device::free_raw(const Allocation& a) {
  REPRO_CHECK(allocated_bytes_ >= a.bytes);
  allocated_bytes_ -= a.bytes;
}

void Device::register_stream(Stream* s) { streams_.push_back(s); }

void Device::unregister_stream(Stream* s) {
  // Destroying a stream synchronizes it: its timeline folds into the
  // serial clock so the makespan survives the stream object.
  clock_ns_ = std::max(clock_ns_, s->ready_ns_);
  std::erase(streams_, s);
}

double& Device::engine_free_ns(Engine e) {
  switch (e) {
    case Engine::Compute: return compute_free_ns_;
    case Engine::DmaH2D: return dma_free_ns_[0];
    default:
      // A second copy engine serves downloads only where the spec has one;
      // G8x-class cards share the single engine between directions.
      return dma_free_ns_[spec_.dma_engines == 2 ? 1 : 0];
  }
}

double Device::schedule(Stream* stream, Engine engine, double ns,
                        std::string name) {
  double& engine_free = engine_free_ns(engine);
  last_op_ms_ = ns * 1e-6;
  if (stream == nullptr) {
    // Serial default queue: legacy default-stream semantics — join every
    // live stream, run, and advance the clock synchronously. With no
    // streams in flight this is exactly the pre-stream serial behaviour.
    double start = clock_ns_;
    for (const Stream* s : streams_) start = std::max(start, s->ready_ns_);
    clock_ns_ = start + ns;
    engine_free = std::max(engine_free, clock_ns_);
    return start;
  }
  // Async op: starts when the stream's prior work, the engine's FIFO, and
  // the submitting (serial) timeline all permit.
  const double start =
      std::max({stream->ready_ns_, engine_free, clock_ns_});
  stream->ready_ns_ = start + ns;
  engine_free = start + ns;
  stream->ops_.push_back(StreamOp{std::move(name), engine, start,
                                  start + ns});
  return start;
}

void Device::record_transfer(TransferDir dir, std::uint64_t bytes) {
  const double ns = pcie_transfer_ns(spec_.pcie, dir, bytes);
  if (dir == TransferDir::HostToDevice) {
    schedule(active_stream_, Engine::DmaH2D, ns, "h2d");
    h2d_ns_ += ns;
    h2d_bytes_ += bytes;
  } else {
    schedule(active_stream_, Engine::DmaD2H, ns, "d2h");
    d2h_ns_ += ns;
    d2h_bytes_ += bytes;
  }
}

LaunchResult Device::launch(Kernel& kernel) {
  const LaunchConfig cfg = kernel.config();
  REPRO_CHECK(cfg.grid_blocks > 0 && cfg.threads_per_block > 0);

  if (faults_ != nullptr && !launch_admitted(cfg.name)) {
    // Rejected at dispatch: the kernel never ran, no time is charged.
    // Synchronous rejections throw from launch_admitted; this path is the
    // asynchronous one, where the stream now carries the sticky error.
    return LaunchResult{};
  }

  const unsigned sampled_blocks =
      std::min<unsigned>(cfg.grid_blocks, options_.max_sampled_blocks);
  const auto tex_lines = static_cast<std::size_t>(
      spec_.texture_cache_bytes / kMinTransactionBytes);

  // KernelCorrupt: decide before the blocks run so each block can capture
  // its last global store; the one the launch corrupts is the highest
  // storing block's. The kernel still runs every block and claims its full
  // simulated time below: only the data goes wrong.
  const bool capture =
      faults_ != nullptr && faults_->fire(FaultKind::KernelCorrupt);

  // Every block fills its own record, on whichever host thread claims it.
  // Blocks are claimed in increasing order, so once a block fails every
  // lower block is already claimed and runs to its end: no more are
  // handed out, and the lowest failing block is always among those run.
  struct alignas(64) BlockRecord {  // one cache line apart: no false sharing
    LaunchStats stats;
    StoreTarget last_store;
    std::exception_ptr error;
  };
  std::vector<BlockRecord> blocks(cfg.grid_blocks);
  std::atomic<unsigned> next_block{0};
  std::atomic<bool> failed{false};
  const std::function<void()> run_blocks = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const unsigned b = next_block.fetch_add(1, std::memory_order_relaxed);
      if (b >= cfg.grid_blocks) return;
      BlockRecord& record = blocks[b];
      try {
        BlockCtx ctx(cfg, record.stats, options_, b, b < sampled_blocks,
                     tex_lines, spec_.shmem_banks,
                     capture ? &record.last_store : nullptr);
        kernel.run_block(ctx);
      } catch (...) {
        record.error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  if (cfg.grid_blocks == 1) {
    run_blocks();
  } else {
    block_pool().run(cfg.grid_blocks - 1, run_blocks);
  }

  // Merge in block order: the result is the one a serial loop gives. The
  // lowest failed block's error propagates and nothing is charged.
  LaunchStats stats;
  const StoreTarget* last_store = nullptr;
  for (BlockRecord& record : blocks) {
    if (record.error != nullptr) std::rethrow_exception(record.error);
    stats.merge(std::move(record.stats));
    if (record.last_store.valid()) last_store = &record.last_store;
  }
  if (last_store != nullptr) last_store->corrupt(last_store->ptr);

  LaunchResult result = estimate_launch(spec_, cfg, stats);
  schedule(active_stream_, Engine::Compute, result.total_ms * 1e6,
           cfg.name);
  history_.push_back(result);
  return result;
}

double Device::submit_timed(Stream& stream, Engine engine, double ms,
                            std::string name) {
  REPRO_CHECK(ms >= 0.0);
  return schedule(&stream, engine, ms * 1e6, std::move(name)) * 1e-6;
}

void Device::sync(Stream& stream) {
  clock_ns_ = std::max(clock_ns_, stream.ready_ns_);
  // Surface the stream's sticky async error (cudaStreamSynchronize). The
  // clock is folded first: the failed attempt's time stays charged.
  if (stream.poisoned()) std::rethrow_exception(stream.error());
}

void Device::sync_all() {
  std::exception_ptr first_error;
  for (const Stream* s : streams_) {
    clock_ns_ = std::max(clock_ns_, s->ready_ns_);
    if (first_error == nullptr && s->error_ != nullptr) {
      first_error = s->error_;
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

double Device::elapsed_ms() const {
  double ns = clock_ns_;
  for (const Stream* s : streams_) ns = std::max(ns, s->ready_ns_);
  return ns * 1e-6;
}

void Device::reset_clock() {
  clock_ns_ = 0.0;
  h2d_ns_ = 0.0;
  d2h_ns_ = 0.0;
  h2d_bytes_ = 0;
  d2h_bytes_ = 0;
  history_.clear();
  compute_free_ns_ = 0.0;
  dma_free_ns_[0] = dma_free_ns_[1] = 0.0;
  for (Stream* s : streams_) {
    s->ready_ns_ = 0.0;
    s->ops_.clear();
  }
}

void Device::advance_clock_to_ms(double ms) {
  clock_ns_ = std::max(clock_ns_, ms * 1e6);
}

void Device::reset_peak_stats() {
  peak_allocated_bytes_ = allocated_bytes_;
  alloc_count_ = 0;
}

void Device::check_stream_ok() const {
  // CUDA semantics: work submitted to a failed stream is rejected at the
  // API call, before it reaches the hardware — it does not count as an
  // occurrence for the injector.
  if (active_stream_ != nullptr && active_stream_->poisoned()) {
    std::rethrow_exception(active_stream_->error());
  }
}

void Device::check_alive() {
  if (lost_) throw DeviceLostError(device_ref());
  if (faults_->fire(FaultKind::DeviceLost)) {
    lost_ = true;
    throw DeviceLostError(device_ref());
  }
}

bool Device::transfer_admitted(TransferDir dir, std::size_t bytes) {
  check_stream_ok();
  check_alive();
  if (!faults_->fire(FaultKind::TransferTransient)) return true;
  // The failed attempt still occupied the link: charge its full PCIe time
  // (and byte accounting) before reporting the loss of the payload.
  record_transfer(dir, bytes);
  TransientTransferError err(
      device_ref(), dir == TransferDir::HostToDevice ? "h2d" : "d2h", bytes);
  if (active_stream_ != nullptr) {
    active_stream_->fail(std::make_exception_ptr(std::move(err)));
    return false;
  }
  throw err;
}

bool Device::launch_admitted(const std::string& kernel_name) {
  check_stream_ok();
  check_alive();
  if (!faults_->fire(FaultKind::LaunchFail)) return true;
  KernelLaunchError err(device_ref(), kernel_name);
  if (active_stream_ != nullptr) {
    active_stream_->fail(std::make_exception_ptr(std::move(err)));
    return false;
  }
  throw err;
}

void Device::maybe_corrupt(void* payload, std::size_t bytes) {
  // fire() first so the occurrence is counted even for empty payloads.
  if (!faults_->fire(FaultKind::TransferCorrupt) || bytes == 0) return;
  // A single bit flip mid-payload: delivered, wrong, and invisible until
  // someone verifies — exactly what the checksummed staging layer is for.
  static_cast<unsigned char*>(payload)[bytes / 2] ^= 0x40u;
}

}  // namespace repro::sim
