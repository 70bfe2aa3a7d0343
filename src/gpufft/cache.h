// Per-device execution resources shared by every plan.
//
// Before this layer each plan privately uploaded its own twiddle tables
// and owned a full-volume work buffer, so N live plans cost N x device
// memory and every plan construction re-paid the PCIe upload of identical
// root tables — exactly the per-stream overhead the paper's Section 2.1
// bandwidth argument says to avoid. The ResourceCache fixes both:
//
//   * Twiddle tables are uploaded once per (n, direction, precision) and
//     handed out as ref-counted shared handles; a 256^3 plan's three axes
//     share ONE 256-entry table, and every later plan of any kind that
//     needs the same roots reuses it for free.
//
//   * Workspace is leased per-execute from a shared arena of pooled
//     blocks instead of being owned per-plan: the arena grows to the
//     high-water mark of what actually runs concurrently (on this
//     serialized simulator, the single largest request) and idle plans
//     hold no workspace at all.
//
// One cache lives on each sim::Device (Device::local<ResourceCache>());
// use ResourceCache::of(dev).
//
// Memory pressure: set_byte_watermark(bytes) arms a device-memory budget.
// Before any allocation that would push Device::allocated_bytes() past the
// watermark the cache evicts its idle resources (unleased arena blocks,
// twiddle tables no live plan references) instead of growing, and any
// allocation that still lands on OutOfDeviceMemory triggers one
// evict-and-retry before the error propagates; both are counted on the
// device's DeviceHealth ledger. With the watermark off (the default) the
// arena behaves exactly as before — grow-in-place, never shrink — so
// existing peak statistics are undisturbed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "gpufft/plan_desc.h"
#include "gpufft/smallfft.h"
#include "gpufft/types.h"

namespace repro::gpufft {

/// The one place device twiddle tables are uploaded (all plans go through
/// the cache; keep it that way so tables stay shared).
template <typename T>
DeviceBuffer<cx<T>> upload_roots(Device& dev, std::size_t n, Direction dir) {
  const auto w = make_roots<T>(n, dir);
  auto buf = dev.alloc<cx<T>>(n);
  dev.h2d(buf, std::span<const cx<T>>(w));
  return buf;
}

class ResourceCache {
  template <typename T>
  struct Block {
    DeviceBuffer<cx<T>> buf;
    bool in_use{false};
  };

 public:
  explicit ResourceCache(Device& dev) : dev_(dev) {}

  ResourceCache(const ResourceCache&) = delete;
  ResourceCache& operator=(const ResourceCache&) = delete;

  /// The cache of `dev` (created on first use, lives as long as the
  /// device).
  static ResourceCache& of(Device& dev) {
    return dev.local<ResourceCache>();
  }

  [[nodiscard]] Device& device() const { return dev_; }

  // ---- Twiddle tables ----

  /// Shared device table of the n-th roots of unity for `dir`. Uploaded
  /// on first request, then served from the cache; the returned handle
  /// ref-counts the table (use_count observes sharing).
  template <typename T>
  std::shared_ptr<const DeviceBuffer<cx<T>>> twiddles(std::size_t n,
                                                      Direction dir) {
    auto& map = twiddle_map<T>();
    const auto key = std::make_pair(n, dir);
    auto it = map.find(key);
    if (it != map.end()) {
      ++twiddle_hits_;
      return it->second;
    }
    ++twiddle_uploads_;
    make_room(n * sizeof(cx<T>));
    auto table = std::make_shared<const DeviceBuffer<cx<T>>>(
        with_oom_retry([&] { return upload_roots<T>(dev_, n, dir); }));
    map.emplace(key, table);
    return table;
  }

  /// Outstanding plan references to the (n, dir) table of precision T
  /// (excluding the cache's own); 0 if the table was never requested.
  template <typename T>
  [[nodiscard]] long twiddle_use_count(std::size_t n, Direction dir) const {
    const auto& map = twiddle_map<T>();
    const auto it = map.find(std::make_pair(n, dir));
    return it == map.end() ? 0 : it->second.use_count() - 1;
  }

  /// Number of distinct device-resident tables (both precisions).
  [[nodiscard]] std::size_t twiddle_tables() const {
    return tw_f32_.size() + tw_f64_.size();
  }

  /// Device bytes held by the twiddle cache.
  [[nodiscard]] std::size_t twiddle_bytes() const {
    std::size_t bytes = 0;
    for (const auto& [k, v] : tw_f32_) bytes += v->size() * sizeof(cxf);
    for (const auto& [k, v] : tw_f64_) {
      bytes += v->size() * sizeof(cx<double>);
    }
    return bytes;
  }

  /// Cold uploads vs. served-from-cache requests.
  [[nodiscard]] std::uint64_t twiddle_uploads() const {
    return twiddle_uploads_;
  }
  [[nodiscard]] std::uint64_t twiddle_hits() const { return twiddle_hits_; }

  // ---- Workspace arena ----

  /// RAII lease of a workspace block; the block returns to the arena when
  /// the lease dies. The buffer may be larger than requested (pooled).
  template <typename T>
  class Lease {
   public:
    Lease(ResourceCache* cache, std::shared_ptr<Block<T>> block)
        : cache_(cache), block_(std::move(block)) {}
    Lease(Lease&& o) noexcept
        : cache_(o.cache_), block_(std::move(o.block_)) {}
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        cache_ = o.cache_;
        block_ = std::move(o.block_);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] DeviceBuffer<cx<T>>& buffer() { return block_->buf; }

   private:
    void release() {
      if (block_) {
        cache_->leased_bytes_ -= block_->buf.size() * sizeof(cx<T>);
        block_->in_use = false;
        block_.reset();
      }
    }

    ResourceCache* cache_;
    std::shared_ptr<Block<T>> block_;
  };

  /// Lease a workspace of at least `count` elements of cx<T>.
  template <typename T>
  Lease<T> lease(std::size_t count) {
    ++workspace_leases_;
    std::shared_ptr<Block<T>> block = acquire_block<T>(count);
    block->in_use = true;
    leased_bytes_ += block->buf.size() * sizeof(cx<T>);
    high_water_bytes_ = std::max(high_water_bytes_, leased_bytes_);
    return Lease<T>(this, std::move(block));
  }

  // ---- Memory watermark ----

  /// Arm (or with 0, disarm) a device-memory budget in bytes: allocations
  /// that would push Device::allocated_bytes() past it evict idle cache
  /// resources first, and OutOfDeviceMemory triggers one evict-and-retry.
  void set_byte_watermark(std::size_t bytes) { watermark_ = bytes; }
  [[nodiscard]] std::size_t byte_watermark() const { return watermark_; }

  struct TrimResult {
    std::size_t bytes = 0;  ///< device bytes freed
    std::size_t items = 0;  ///< blocks + tables evicted
  };

  /// Free every idle arena block and every twiddle table no plan holds a
  /// reference to. Leased blocks and referenced tables are untouched, so
  /// this is always safe to call; it only costs re-allocation later.
  TrimResult trim_idle() {
    TrimResult r;
    trim_pool(pool_f32_, r);
    trim_pool(pool_f64_, r);
    trim_twiddles(tw_f32_, r);
    trim_twiddles(tw_f64_, r);
    return r;
  }

  /// Bytes currently leased out.
  [[nodiscard]] std::size_t workspace_in_use_bytes() const {
    return leased_bytes_;
  }
  /// Device bytes the arena holds (leased + idle pool blocks).
  [[nodiscard]] std::size_t workspace_pool_bytes() const {
    std::size_t bytes = 0;
    for (const auto& b : pool_f32_) bytes += b->buf.size() * sizeof(cxf);
    for (const auto& b : pool_f64_) {
      bytes += b->buf.size() * sizeof(cx<double>);
    }
    return bytes;
  }
  /// Largest concurrently-leased footprint ever observed.
  [[nodiscard]] std::size_t workspace_high_water_bytes() const {
    return high_water_bytes_;
  }
  /// Lease requests vs. requests that had to allocate device memory.
  [[nodiscard]] std::uint64_t workspace_leases() const {
    return workspace_leases_;
  }
  [[nodiscard]] std::uint64_t workspace_allocs() const {
    return workspace_allocs_;
  }

 private:
  template <typename T>
  using TwiddleMap =
      std::map<std::pair<std::size_t, Direction>,
               std::shared_ptr<const DeviceBuffer<cx<T>>>>;

  template <typename T>
  [[nodiscard]] TwiddleMap<T>& twiddle_map() {
    if constexpr (std::is_same_v<T, float>) {
      return tw_f32_;
    } else {
      return tw_f64_;
    }
  }
  template <typename T>
  [[nodiscard]] const TwiddleMap<T>& twiddle_map() const {
    if constexpr (std::is_same_v<T, float>) {
      return tw_f32_;
    } else {
      return tw_f64_;
    }
  }

  template <typename T>
  [[nodiscard]] std::vector<std::shared_ptr<Block<T>>>& workspace_pool() {
    if constexpr (std::is_same_v<T, float>) {
      return pool_f32_;
    } else {
      return pool_f64_;
    }
  }

  /// Find or create a block of >= count elements, honouring the watermark
  /// and recovering from OutOfDeviceMemory by evicting idle resources.
  template <typename T>
  std::shared_ptr<Block<T>> acquire_block(std::size_t count) {
    auto& pool = workspace_pool<T>();
    // Smallest free block that fits.
    std::shared_ptr<Block<T>>* best = nullptr;
    std::shared_ptr<Block<T>>* largest_free = nullptr;
    for (auto& b : pool) {
      if (b->in_use) continue;
      if (!largest_free || b->buf.size() > (*largest_free)->buf.size()) {
        largest_free = &b;
      }
      if (b->buf.size() >= count &&
          (!best || b->buf.size() < (*best)->buf.size())) {
        best = &b;
      }
    }
    if (best != nullptr) return *best;

    const auto alloc = [&] {
      return with_oom_retry([&] { return dev_.alloc<cx<T>>(count); });
    };

    if (largest_free != nullptr) {
      // Grow an idle block in place of allocating another: the arena
      // converges on the high-water-mark footprint. Hold the block by
      // value — a recovery trim erases idle blocks from the pool, which
      // would invalidate the scan pointers.
      std::shared_ptr<Block<T>> block = *largest_free;
      if (watermark_ != 0) {
        // Under a watermark, free the stale buffer before growing so the
        // transient footprint never holds old + new at once.
        block->buf = DeviceBuffer<cx<T>>();
        make_room(count * sizeof(cx<T>));
      }
      block->buf = alloc();
      ++workspace_allocs_;
      if (std::find(pool.begin(), pool.end(), block) == pool.end()) {
        pool.push_back(block);  // a trim dropped it; re-adopt
      }
      return block;
    }

    make_room(count * sizeof(cx<T>));
    auto block = std::make_shared<Block<T>>();
    block->buf = alloc();
    ++workspace_allocs_;
    pool.push_back(block);
    return block;
  }

  /// Under an armed watermark, evict idle resources before an allocation
  /// of `bytes` would push the device past it.
  void make_room(std::size_t bytes) {
    if (watermark_ != 0 && dev_.allocated_bytes() + bytes > watermark_) {
      dev_.health().watermark_evictions += trim_idle().items;
    }
  }

  /// Run the allocation `alloc`; on OutOfDeviceMemory evict idle
  /// resources and retry once (a second failure propagates).
  template <typename Alloc>
  auto with_oom_retry(Alloc&& alloc) {
    try {
      return alloc();
    } catch (const sim::OutOfDeviceMemory&) {
      const TrimResult t = trim_idle();
      if (t.items == 0) throw;
      dev_.health().oom_evictions += t.items;
      ++dev_.health().oom_retries;
      return alloc();
    }
  }

  template <typename T>
  void trim_pool(std::vector<std::shared_ptr<Block<T>>>& pool,
                 TrimResult& r) {
    std::erase_if(pool, [&](const std::shared_ptr<Block<T>>& b) {
      if (b->in_use || !b->buf.valid()) return false;
      r.bytes += b->buf.size() * sizeof(cx<T>);
      ++r.items;
      return true;
    });
  }

  template <typename T>
  void trim_twiddles(TwiddleMap<T>& map, TrimResult& r) {
    std::erase_if(map, [&](const auto& entry) {
      if (entry.second.use_count() != 1) return false;  // a plan holds it
      r.bytes += entry.second->size() * sizeof(cx<T>);
      ++r.items;
      return true;
    });
  }

  Device& dev_;
  TwiddleMap<float> tw_f32_;
  TwiddleMap<double> tw_f64_;
  std::vector<std::shared_ptr<Block<float>>> pool_f32_;
  std::vector<std::shared_ptr<Block<double>>> pool_f64_;
  std::size_t leased_bytes_ = 0;
  std::size_t high_water_bytes_ = 0;
  std::size_t watermark_ = 0;  // 0 = no budget
  std::uint64_t twiddle_uploads_ = 0;
  std::uint64_t twiddle_hits_ = 0;
  std::uint64_t workspace_leases_ = 0;
  std::uint64_t workspace_allocs_ = 0;
};

}  // namespace repro::gpufft
