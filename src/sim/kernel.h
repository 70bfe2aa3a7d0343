// Kernel execution framework.
//
// Kernels are written in a CUDA-like style against this framework and run
// functionally on the host while the framework observes their memory
// behaviour. A kernel implements `run_block`, which issues one or more
// `ctx.threads(fn)` phases; each phase runs `fn` once per thread of the
// block and ends with an implicit __syncthreads() barrier, giving correct
// shared-memory semantics without coroutines.
//
// Memory is touched through views:
//   GlobalView<T>   — device memory; every access is counted, and for the
//                     sampled prefix of each block the per-half-warp slots
//                     are coalesced with the G80 rules into DRAM
//                     transactions, forming per-warp streams for the DRAM
//                     timing model.
//   SharedView<T>   — on-chip shared memory; bank-conflict serialization is
//                     measured per half-warp slot.
//   TextureView<T>  — read-only global memory through a per-SM texture
//                     cache model (the paper's twiddle/exchange option).
//   ConstView<T>    — constant cache; broadcasts are free, divergent lanes
//                     serialize ("32-bit data per cycle", Section 3.2).
//
// Sampling: a block records its first `sample_accesses_per_thread` global
// accesses per thread (all threads cut off at the same count, keeping slots
// aligned). Exact byte totals are always counted; the timing model scales
// the sampled measurements by the exact/sampled ratio.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "sim/buffer.h"
#include "sim/coalesce.h"
#include "sim/shmem.h"

namespace repro::sim {

/// Type-erased handle to one stored element, captured at each block's last
/// global store when a KernelCorrupt fault fires; the launch corrupts the
/// highest storing block's, the last store a serial block loop makes.
/// Corrupting the *last* store guarantees the perturbation lands on output
/// the kernel actually produced — never on a scratch buffer nobody reads
/// again.
struct StoreTarget {
  void* ptr = nullptr;
  void (*corrupt)(void*) = nullptr;
  [[nodiscard]] bool valid() const { return ptr != nullptr; }
};

namespace detail {
/// Perturb one element so grossly that an energy-based (Parseval) check
/// always sees it: scale by 2^40, or set to 2^40 outright when the value
/// is small. A mere bit flip can be energy-invisible at large N (one
/// element is ~1/N of the volume's energy); a 2^80 energy excursion never
/// is, and an overflow to inf is detected just the same.
template <typename T>
void corrupt_element(void* p) {
  T& v = *static_cast<T*>(p);
  if constexpr (std::is_floating_point_v<T>) {
    v = std::abs(v) < T(1) ? T(0x1p40) : v * T(0x1p40);
  } else if constexpr (requires(T c) { c.re = c.re; c.im; }) {
    // The repo's cx<T> (aggregate .re/.im members).
    using R = std::remove_reference_t<decltype(v.re)>;
    v.re = std::abs(v.re) < R(1) ? R(0x1p40) : v.re * R(0x1p40);
  } else if constexpr (requires(T c) { c.real(); c.imag(); }) {
    using R = typename T::value_type;
    const R re = v.real();
    v = T(std::abs(re) < R(1) ? R(0x1p40) : re * R(0x1p40), v.imag());
  } else {
    reinterpret_cast<unsigned char*>(p)[0] ^= 0x40u;
  }
}
}  // namespace detail

/// Resource and work declaration for one kernel launch.
struct LaunchConfig {
  std::string name = "kernel";
  unsigned grid_blocks = 1;
  unsigned threads_per_block = 64;
  int regs_per_thread = 16;
  std::size_t shmem_per_block = 0;
  double total_flops = 0.0;        ///< FP operations across the whole grid
  double fma_fraction = 0.5;       ///< fraction of flops issued as MAD pairs
  double extra_cycles_per_thread = 0.0;  ///< addressing/control overhead
  bool fp64 = false;  ///< flops are double precision (needs DP units)
};

/// Everything the framework observed during one launch. Each block fills
/// its own LaunchStats while it runs, and the launch merges them in block
/// order (see Device::launch).
struct LaunchStats {
  // Exact functional counts.
  std::uint64_t elem_bytes_loaded = 0;
  std::uint64_t elem_bytes_stored = 0;
  std::uint64_t tex_elem_bytes = 0;

  // Sampled while recording.
  std::uint64_t sampled_elem_bytes = 0;  ///< global element bytes in slots
  std::uint64_t sampled_txn_bytes = 0;   ///< post-coalescing DRAM bytes
  std::uint64_t coalesced_slots = 0;
  std::uint64_t uncoalesced_slots = 0;
  std::uint64_t shmem_thread_cycles = 0;  ///< serialization cost, per lane
  std::uint64_t const_thread_cycles = 0;
  std::uint64_t sampled_tex_elem_bytes = 0;
  std::uint64_t sampled_tex_miss_bytes = 0;
  /// One DRAM transaction stream per warp of each recording block
  /// (ordered by block, then warp).
  std::vector<std::vector<Transaction>> warp_streams;

  /// Fold the next block's stats into these: the counters add and its
  /// warp streams are appended. Every counter is an integer, so the
  /// merged totals do not depend on how the blocks were scheduled.
  void merge(LaunchStats&& block);

  /// Fraction of sampled global slots that coalesced.
  [[nodiscard]] double coalesced_fraction() const {
    const std::uint64_t total = coalesced_slots + uncoalesced_slots;
    return total == 0 ? 1.0
                      : static_cast<double>(coalesced_slots) / total;
  }
};

// The half-warp slot rule. A slot is the k-th access of every thread of
// one half-warp that made k or more; BlockCtx accounts each recorded slot
// with these, and the planner prices its synthetic slots with the same.

/// Account one global-memory slot of `lanes`: count its element bytes,
/// coalesce it with the G80 rules, count it as coalesced or not, and append
/// its DRAM transactions (and their bytes) to the warp's `stream`.
void account_global_slot(std::span<const LaneAccess> lanes,
                         std::vector<Transaction>& stream, LaunchStats& stats);

/// Serialization cycles of one constant-memory slot whose lanes read
/// `addrs` (reordered in place): each distinct address is one pass over
/// the slot's lanes, 32 bits per cycle, so a broadcast costs one.
std::uint64_t const_slot_cycles(std::vector<std::uint64_t>& addrs);

/// Sampling knobs (owned by Device).
struct SimOptions {
  std::uint32_t sample_accesses_per_thread = 1536;
  std::uint32_t max_sampled_blocks = 256;
};

/// Per-thread identity passed to the phase function.
struct ThreadCtx {
  unsigned tid{};        ///< thread index within the block
  unsigned block{};      ///< block index within the grid
  unsigned block_dim{};  ///< threads per block
  unsigned grid_dim{};   ///< blocks in the grid

  [[nodiscard]] unsigned global_id() const { return block * block_dim + tid; }
  [[nodiscard]] unsigned total_threads() const {
    return grid_dim * block_dim;
  }
};

class BlockCtx;

/// Device-memory accessor bound to one block's execution.
template <typename T>
class GlobalView {
 public:
  GlobalView(BlockCtx* ctx, T* host, std::uint64_t base)
      : ctx_(ctx), host_(host), base_(base) {}

  inline T load(const ThreadCtx& t, std::size_t i) const;
  inline void store(const ThreadCtx& t, std::size_t i, T v) const;

 private:
  BlockCtx* ctx_;
  T* host_;
  std::uint64_t base_;
};

/// Read-only texture-path accessor (per-SM cache model).
template <typename T>
class TextureView {
 public:
  TextureView(BlockCtx* ctx, const T* host, std::uint64_t base)
      : ctx_(ctx), host_(host), base_(base) {}

  inline T fetch(const ThreadCtx& t, std::size_t i) const;

 private:
  BlockCtx* ctx_;
  const T* host_;
  std::uint64_t base_;
};

/// Constant-memory accessor over a host-side table.
template <typename T>
class ConstView {
 public:
  ConstView(BlockCtx* ctx, const T* table) : ctx_(ctx), table_(table) {}

  inline T load(const ThreadCtx& t, std::size_t i) const;

 private:
  BlockCtx* ctx_;
  const T* table_;
};

/// Shared-memory accessor (element-typed window into the block's shmem).
template <typename T>
class SharedView {
 public:
  SharedView(BlockCtx* ctx, T* base, std::size_t word_offset)
      : ctx_(ctx), base_(base), word_offset_(word_offset) {}

  inline T load(const ThreadCtx& t, std::size_t i) const;
  inline void store(const ThreadCtx& t, std::size_t i, T v) const;

 private:
  BlockCtx* ctx_;
  T* base_;
  std::size_t word_offset_;  ///< element 0's offset in 4-byte words
};

/// Execution context of one thread block. A block writes only its own
/// `stats` (a recording block sizes its warp streams, one per warp) and
/// its own `capture` target, so the blocks of a launch can run on
/// different host threads.
class BlockCtx {
 public:
  BlockCtx(const LaunchConfig& cfg, LaunchStats& stats, const SimOptions& opt,
           unsigned block_index, bool recording, std::size_t tex_cache_lines,
           int shmem_banks, StoreTarget* capture = nullptr);

  [[nodiscard]] unsigned block_index() const { return block_; }
  [[nodiscard]] const LaunchConfig& config() const { return cfg_; }

  /// Run `fn(ThreadCtx&)` for every thread of the block; an implicit
  /// __syncthreads() barrier ends the phase.
  template <typename F>
  void threads(F&& fn) {
    ThreadCtx t;
    t.block = block_;
    t.block_dim = cfg_.threads_per_block;
    t.grid_dim = cfg_.grid_blocks;
    for (unsigned tid = 0; tid < cfg_.threads_per_block; ++tid) {
      t.tid = tid;
      fn(t);
    }
    end_phase();
  }

  template <typename T>
  GlobalView<T> global(DeviceBuffer<T>& buf) {
    return GlobalView<T>(this, buf.data(), buf.base_addr());
  }
  template <typename T>
  GlobalView<T> global(DeviceBuffer<T>& buf, std::size_t elem_offset) {
    return GlobalView<T>(this, buf.data() + elem_offset,
                         buf.base_addr() + elem_offset * sizeof(T));
  }
  template <typename T>
  TextureView<T> texture(const DeviceBuffer<T>& buf) {
    return TextureView<T>(this, buf.data(), buf.base_addr());
  }
  template <typename T>
  ConstView<T> constant(const std::vector<T>& table) {
    return ConstView<T>(this, table.data());
  }
  /// Shared-memory window of `count` T elements starting `byte_offset`
  /// bytes into the block's shared memory.
  template <typename T>
  SharedView<T> shared(std::size_t byte_offset, std::size_t count) {
    REPRO_CHECK_MSG(byte_offset % sizeof(T) == 0,
                    "misaligned shared-memory window");
    REPRO_CHECK_MSG(byte_offset + count * sizeof(T) <= shmem_.size(),
                    "shared-memory window exceeds the block allocation");
    return SharedView<T>(this, reinterpret_cast<T*>(shmem_.data() + byte_offset),
                         byte_offset / kShmemWordBytes);
  }

  // --- framework internals used by the views (kept public for inlining) ---
  struct GlobalAccess {
    std::uint64_t addr;
    std::uint32_t bytes;
  };
  struct ShAccess {
    std::uint64_t word;
    std::uint32_t words;
  };

  [[nodiscard]] bool recording() const { return recording_; }
  /// True only while a fired KernelCorrupt fault is capturing stores; on
  /// every other launch this is a null test and the store path is
  /// unchanged (bench_fault_overhead pins the disabled-injector case).
  [[nodiscard]] bool capturing() const { return capture_ != nullptr; }
  inline void capture_store(void* p, void (*fn)(void*)) {
    capture_->ptr = p;
    capture_->corrupt = fn;
  }

  inline void note_load_bytes(std::uint64_t b) {
    stats_.elem_bytes_loaded += b;
  }
  inline void note_store_bytes(std::uint64_t b) {
    stats_.elem_bytes_stored += b;
  }
  inline void note_tex_bytes(std::uint64_t b) { stats_.tex_elem_bytes += b; }

  // Budgets are per thread across the whole block (not per phase), so every
  // thread cuts off at the same access index and slots stay aligned.
  inline void record_global(unsigned tid, std::uint64_t addr,
                            std::uint32_t bytes) {
    if (gcount_[tid] < opt_.sample_accesses_per_thread) {
      ++gcount_[tid];
      glog_[tid].push_back(GlobalAccess{addr, bytes});
    }
  }
  inline void record_shared(unsigned tid, std::uint64_t word,
                            std::uint32_t words) {
    if (scount_[tid] < opt_.sample_accesses_per_thread) {
      ++scount_[tid];
      slog_[tid].push_back(ShAccess{word, words});
    }
  }
  inline void record_const(unsigned tid, std::uint64_t addr) {
    if (ccount_[tid] < opt_.sample_accesses_per_thread) {
      ++ccount_[tid];
      clog_[tid].push_back(addr);
    }
  }
  /// Texture fetch through the per-SM cache model; appends a miss
  /// transaction to the thread's warp stream.
  inline void record_texture(unsigned tid, std::uint64_t addr,
                             std::uint32_t bytes) {
    if (tcount_[tid] < opt_.sample_accesses_per_thread) {
      ++tcount_[tid];
      record_texture_impl(tid, addr, bytes);
    }
  }

 private:
  void end_phase();

  const LaunchConfig& cfg_;
  LaunchStats& stats_;
  const SimOptions& opt_;
  unsigned block_;
  bool recording_;
  int shmem_banks_;  ///< bank count for conflict accounting (GpuSpec's)
  StoreTarget* capture_;  ///< non-null only under a fired KernelCorrupt

  std::vector<std::byte> shmem_;

  // Per-thread access logs for the current phase (recording only) and
  // cumulative per-thread budgets across phases.
  std::vector<std::vector<GlobalAccess>> glog_;
  std::vector<std::vector<ShAccess>> slog_;
  std::vector<std::vector<std::uint64_t>> clog_;
  std::vector<std::uint32_t> gcount_;
  std::vector<std::uint32_t> scount_;
  std::vector<std::uint32_t> ccount_;
  std::vector<std::uint32_t> tcount_;

  void record_texture_impl(unsigned tid, std::uint64_t addr,
                           std::uint32_t bytes);

  // Texture cache (direct-mapped, 32-byte lines), block ~ SM approximation.
  std::vector<std::int64_t> tex_tags_;
};

/// Interface implemented by every simulated kernel. A launch calls
/// run_block for its blocks concurrently, from several host threads, on
/// the one kernel object: run_block must not write the kernel's members,
/// and a global element one block writes must be one that no other block
/// of the launch reads or writes.
class Kernel {
 public:
  virtual ~Kernel() = default;
  [[nodiscard]] virtual LaunchConfig config() const = 0;
  virtual void run_block(BlockCtx& ctx) = 0;
};

// ---- inline view implementations ----

template <typename T>
inline T GlobalView<T>::load(const ThreadCtx& t, std::size_t i) const {
  ctx_->note_load_bytes(sizeof(T));
  if (ctx_->recording()) {
    ctx_->record_global(t.tid, base_ + i * sizeof(T),
                        static_cast<std::uint32_t>(sizeof(T)));
  }
  return host_[i];
}

template <typename T>
inline void GlobalView<T>::store(const ThreadCtx& t, std::size_t i,
                                 T v) const {
  ctx_->note_store_bytes(sizeof(T));
  if (ctx_->recording()) {
    ctx_->record_global(t.tid, base_ + i * sizeof(T),
                        static_cast<std::uint32_t>(sizeof(T)));
  }
  host_[i] = v;
  if (ctx_->capturing()) {
    ctx_->capture_store(&host_[i], &detail::corrupt_element<T>);
  }
}

template <typename T>
inline T TextureView<T>::fetch(const ThreadCtx& t, std::size_t i) const {
  ctx_->note_tex_bytes(sizeof(T));
  if (ctx_->recording()) {
    ctx_->record_texture(t.tid, base_ + i * sizeof(T),
                         static_cast<std::uint32_t>(sizeof(T)));
  }
  return host_[i];
}

template <typename T>
inline T ConstView<T>::load(const ThreadCtx& t, std::size_t i) const {
  if (ctx_->recording()) {
    ctx_->record_const(t.tid, reinterpret_cast<std::uint64_t>(table_ + i));
  }
  return table_[i];
}

template <typename T>
inline T SharedView<T>::load(const ThreadCtx& t, std::size_t i) const {
  if (ctx_->recording()) {
    ctx_->record_shared(t.tid, word_offset_ + i * sizeof(T) / kShmemWordBytes,
                        static_cast<std::uint32_t>(
                            (sizeof(T) + kShmemWordBytes - 1) /
                            kShmemWordBytes));
  }
  return base_[i];
}

template <typename T>
inline void SharedView<T>::store(const ThreadCtx& t, std::size_t i,
                                 T v) const {
  if (ctx_->recording()) {
    ctx_->record_shared(t.tid, word_offset_ + i * sizeof(T) / kShmemWordBytes,
                        static_cast<std::uint32_t>(
                            (sizeof(T) + kShmemWordBytes - 1) /
                            kShmemWordBytes));
  }
  base_[i] = v;
}

}  // namespace repro::sim
