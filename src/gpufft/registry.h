// The front door for obtaining plans.
//
//   auto plan = PlanRegistry::of(dev).get_or_create(
//       PlanDesc::bandwidth3d(cube(256), Direction::Forward));
//   plan->execute(data);
//
// Equal descriptions share one plan instance (cuFFT-style plan handles):
// a registry hit costs a hash lookup instead of twiddle-table generation,
// PCIe uploads, and device allocations. Sharing is stream-safe: a shared
// plan may be driven through execute() or execute_async() on any
// sim::Stream — kernels serialize on the device's single compute engine,
// so the shared workspace lease is never live on two overlapping
// timelines. The registry keeps at most
// `capacity()` plans, evicting the least-recently-used — holders of an
// evicted shared_ptr keep a working plan; the registry just stops handing
// it out. Hit/miss/eviction counters feed the bench_plan_cache report.
//
// Memory budget: set_byte_watermark(bytes) arms a device-memory watermark
// across the registry and its devices' ResourceCaches (every member for a
// group registry). Plan construction that would push the footprint past
// the watermark first evicts LRU plans and trims idle cache resources,
// and a build that still hits OutOfDeviceMemory evicts and retries until
// there is nothing left to evict — only then does the error propagate,
// enriched with the plan label. This is what keeps
// DeviceGroup::peak_bytes_in_flight() under a byte budget in many-shape
// workloads: old plans fall out instead of the new one throwing.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "gpufft/cache.h"
#include "gpufft/fft_plan.h"
#include "gpufft/plan_desc.h"
#include "gpufft/planner.h"
#include "sim/device_group.h"

namespace repro::gpufft {

class PlanRegistry {
 public:
  explicit PlanRegistry(Device& dev) : dev_(dev) {}

  /// A group-attached registry: behaves exactly like the single-device
  /// one but can additionally serve PlanKind::Sharded3D descriptions,
  /// which need the whole fleet. Non-sharded descriptions build on the
  /// group's first device.
  explicit PlanRegistry(sim::DeviceGroup& group)
      : dev_(group.device(0)), group_(&group) {}

  PlanRegistry(const PlanRegistry&) = delete;
  PlanRegistry& operator=(const PlanRegistry&) = delete;

  /// The registry of `dev` (created on first use, device lifetime).
  static PlanRegistry& of(Device& dev) {
    return dev.local<PlanRegistry>();
  }

  /// The registry of `group` (created on first use, group lifetime).
  /// Distinct from the members' own registries: sharded plans live here,
  /// per-device plans (e.g. the shards' slab FFTs) live on the members.
  static PlanRegistry& of(sim::DeviceGroup& group) {
    return group.local<PlanRegistry>();
  }

  /// Single-precision front door (the paper's configuration). The
  /// description must have precision F32.
  std::shared_ptr<FftPlan> get_or_create(const PlanDesc& desc) {
    return get_or_create_as<float>(desc);
  }

  /// Precision-typed lookup; desc.precision must match T.
  template <typename T>
  std::shared_ptr<FftPlanT<T>> get_or_create_as(const PlanDesc& desc);

  /// Autotuned front door: `desc` must carry the default TuneConfig (the
  /// tuner owns the knobs). Looks up the wisdom entry for this device —
  /// searching the TuneConfig space with the closed-form cost model on
  /// first use — and returns the plan built with the winning config. A
  /// warm registry (wisdom loaded or already searched) performs zero
  /// candidate evaluations.
  std::shared_ptr<FftPlan> get_or_create_tuned(const PlanDesc& desc) {
    return get_or_create_tuned_as<float>(desc);
  }
  template <typename T>
  std::shared_ptr<FftPlanT<T>> get_or_create_tuned_as(const PlanDesc& desc);

  /// The TuneConfig the tuner chose for `desc` on this registry's device
  /// (searches and caches on first call; `desc.tune` must be default).
  /// On a group registry, same-fingerprint members share one search: the
  /// first member with each distinct GpuSpec fingerprint is searched (or
  /// its warm wisdom reused) and the winning config is seeded into every
  /// matching member's wisdom, so a homogeneous group of N costs one
  /// evaluation instead of N.
  const TuneConfig& tuned_config(const PlanDesc& desc);

  // ---- wisdom: persisted tuning results (FFTW-style) ----

  /// Serialize every cached tuning decision as human-readable text. The
  /// file carries a `schema` line (kWisdomSchemaVersion, the cost-model
  /// version) and a header with a fingerprint of the device's
  /// model-relevant GpuSpec fields; import on a different schema or spec
  /// rejects the file.
  [[nodiscard]] std::string export_wisdom() const;
  /// Merge wisdom text into the cache. Returns the number of entries
  /// accepted; 0 (and no mutation) when the schema version or the GpuSpec
  /// fingerprint does not match — all-or-nothing, with the reason written
  /// to `reject_reason` when non-null.
  std::size_t import_wisdom(const std::string& text,
                            std::string* reject_reason = nullptr);
  /// File forms of export_wisdom/import_wisdom.
  void save_wisdom(const std::string& path) const;
  std::size_t load_wisdom(const std::string& path,
                          std::string* reject_reason = nullptr);

  /// Tuning searches run (wisdom misses) and candidate configurations
  /// scored by the cost model. A process warm-started from wisdom shows
  /// zero on both.
  [[nodiscard]] std::uint64_t tune_searches() const { return tune_searches_; }
  [[nodiscard]] std::uint64_t tune_evaluations() const {
    return tune_evaluations_;
  }
  /// Resident wisdom entries.
  [[nodiscard]] std::size_t wisdom_size() const { return wisdom_.size(); }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Shrink/grow the LRU window (evicts immediately when shrinking).
  void set_capacity(std::size_t capacity);

  /// Arm (0: disarm) a device-memory byte watermark. Propagates to the
  /// ResourceCache of every device this registry builds on, so arena and
  /// twiddle growth respect the same budget as plan construction.
  void set_byte_watermark(std::size_t bytes);
  [[nodiscard]] std::size_t byte_watermark() const { return watermark_; }
  /// Plans evicted for memory (watermark or OOM recovery), a subset of
  /// evictions().
  [[nodiscard]] std::uint64_t byte_evictions() const {
    return byte_evictions_;
  }

  /// Whether a plan for `desc` is currently resident (does not touch the
  /// LRU order or counters).
  [[nodiscard]] bool contains(const PlanDesc& desc) const {
    return index_.find(desc) != index_.end();
  }

  /// Drop every cached plan (outstanding shared_ptrs stay valid).
  void clear();

  /// Rough device bytes building + executing `desc` will need — the
  /// figure the watermark enforcement reserves before construction, and
  /// the one the FFT service's admission control compares against the
  /// byte watermark before accepting a request.
  [[nodiscard]] static std::size_t plan_headroom_bytes(const PlanDesc& desc);

 private:
  struct Entry {
    PlanDesc desc;
    std::shared_ptr<void> plan;  // FftPlanT<float> or FftPlanT<double>
  };

  /// Find `desc`, refreshing LRU order; nullptr when absent.
  std::shared_ptr<void>* find(const PlanDesc& desc);
  void insert(const PlanDesc& desc, std::shared_ptr<void> plan);
  void evict_to_capacity();

  /// Build a plan for `desc`, evicting LRU plans and trimming caches on
  /// memory pressure (watermark and OutOfDeviceMemory recovery).
  template <typename T>
  std::shared_ptr<FftPlanT<T>> build_plan(const PlanDesc& desc);

  /// Device bytes currently allocated across the registry's devices (the
  /// max over group members, since each card has its own memory).
  [[nodiscard]] std::size_t footprint_bytes() const;
  /// Drop the LRU plan and trim idle cache resources; false when there was
  /// nothing left to release.
  bool evict_for_memory(bool watermark_driven);
  void trim_caches(ResourceCache::TrimResult& total);

  Device& dev_;
  sim::DeviceGroup* group_ = nullptr;  // non-null for group registries
  /// Tuning wisdom, keyed by the default-tune description (the tuned
  /// config is the value, never part of the key).
  std::unordered_map<PlanDesc, TuneConfig, PlanDescHash> wisdom_;
  std::uint64_t tune_searches_ = 0;
  std::uint64_t tune_evaluations_ = 0;
  std::list<Entry> lru_;  // most-recently-used first
  std::unordered_map<PlanDesc, std::list<Entry>::iterator, PlanDescHash>
      index_;
  std::size_t capacity_ = 32;
  std::size_t watermark_ = 0;  // 0 = no byte budget
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t byte_evictions_ = 0;
};

/// Construct a fresh plan for `desc` outside the registry (the registry's
/// factory; exposed for cold-path benchmarking). Sharded3D descriptions
/// additionally need the device group the plan spans.
template <typename T>
std::shared_ptr<FftPlanT<T>> make_plan(Device& dev, const PlanDesc& desc,
                                       sim::DeviceGroup* group = nullptr);

extern template std::shared_ptr<FftPlanT<float>> make_plan<float>(
    Device&, const PlanDesc&, sim::DeviceGroup*);
extern template std::shared_ptr<FftPlanT<double>> make_plan<double>(
    Device&, const PlanDesc&, sim::DeviceGroup*);
extern template std::shared_ptr<FftPlanT<float>>
PlanRegistry::get_or_create_as<float>(const PlanDesc&);
extern template std::shared_ptr<FftPlanT<double>>
PlanRegistry::get_or_create_as<double>(const PlanDesc&);
extern template std::shared_ptr<FftPlanT<float>>
PlanRegistry::get_or_create_tuned_as<float>(const PlanDesc&);
extern template std::shared_ptr<FftPlanT<double>>
PlanRegistry::get_or_create_tuned_as<double>(const PlanDesc&);

}  // namespace repro::gpufft
