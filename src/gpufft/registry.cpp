#include "gpufft/registry.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "gpufft/batch1d.h"
#include "gpufft/batch_sharded.h"
#include "gpufft/conventional3d.h"
#include "gpufft/mixed3d.h"
#include "gpufft/naive.h"
#include "gpufft/outofcore.h"
#include "gpufft/plan.h"
#include "gpufft/plan2d.h"
#include "gpufft/real3d.h"
#include "gpufft/sharded.h"

namespace repro::gpufft {

template <typename T>
std::shared_ptr<FftPlanT<T>> make_plan(Device& dev, const PlanDesc& desc,
                                       sim::DeviceGroup* group) {
  REPRO_CHECK_MSG(desc.precision == precision_of<T>,
                  "plan description precision does not match the request");
  const TuneConfig& opt = desc.tune;

  switch (desc.kind) {
    case PlanKind::Bandwidth3D:
      return std::make_shared<BandwidthFft3DT<T>>(dev, desc.shape, desc.dir,
                                                  opt);
    case PlanKind::Bandwidth2D:
      return std::make_shared<BandwidthFft2DT<T>>(
          dev, Shape2{desc.shape.nx, desc.shape.ny}, desc.dir, opt);
    case PlanKind::Batch1D:
      return std::make_shared<Batch1DFftT<T>>(dev, desc.shape.nx,
                                              desc.shape.ny, desc.dir, opt);
    case PlanKind::Real3D:
      return std::make_shared<RealFft3DT<T>>(dev, desc.shape, desc.dir, opt);
    case PlanKind::Mixed3D:
      return std::make_shared<MixedFft3DT<T>>(dev, desc.shape, desc.dir, opt);
    default:
      break;
  }
  // The remaining kinds are implemented in single precision only.
  if constexpr (std::is_same_v<T, float>) {
    switch (desc.kind) {
      case PlanKind::Conventional3D:
        return std::make_shared<ConventionalFft3D>(
            dev, desc.shape, desc.dir, desc.tune, desc.transpose);
      case PlanKind::Naive3D:
        return std::make_shared<NaiveFft3D>(dev, desc.shape, desc.dir,
                                            desc.tune.grid_blocks);
      case PlanKind::OutOfCore:
        return std::make_shared<OutOfCoreFft3D>(
            dev, desc.shape.nx, desc.splits, desc.dir, desc.tune);
      case PlanKind::Sharded3D:
        REPRO_CHECK_MSG(group != nullptr,
                        "sharded plans span a device fleet; obtain them "
                        "through PlanRegistry::of(sim::DeviceGroup&)");
        // Layout discriminates the executor within the kind: half-spectrum
        // shards move half the exchange bytes.
        if (desc.layout == Layout::RealHalfSpectrum) {
          return std::make_shared<ShardedRealFft3DPlan>(
              *group, desc.shape.nx, desc.splits, desc.dir, desc.tune);
        }
        return std::make_shared<ShardedFft3DPlan>(
            *group, desc.shape.nx, desc.splits, desc.dir, desc.tune);
      case PlanKind::BatchSharded3D:
        REPRO_CHECK_MSG(group != nullptr,
                        "batch-sharded plans span a device fleet; obtain "
                        "them through PlanRegistry::of(sim::DeviceGroup&)");
        return std::make_shared<BatchShardedFft3DPlan>(
            *group, desc.shape.nx, desc.splits, desc.dir, desc.tune);
      default:
        REPRO_FAIL(
            "convolution plans hold a resident filter; construct "
            "Convolution3D directly");
    }
  } else {
    REPRO_FAIL("this plan kind is implemented in single precision only");
  }
}

template <typename T>
std::shared_ptr<FftPlanT<T>> PlanRegistry::get_or_create_as(
    const PlanDesc& desc) {
  if (auto* slot = find(desc)) {
    ++hits_;
    return std::static_pointer_cast<FftPlanT<T>>(*slot);
  }
  ++misses_;
  auto plan = build_plan<T>(desc);
  insert(desc, plan);
  return plan;
}

template <typename T>
std::shared_ptr<FftPlanT<T>> PlanRegistry::get_or_create_tuned_as(
    const PlanDesc& desc) {
  PlanDesc tuned = desc;
  tuned.tune = tuned_config(desc);
  return get_or_create_as<T>(tuned);
}

const TuneConfig& PlanRegistry::tuned_config(const PlanDesc& desc) {
  REPRO_CHECK_MSG(desc.tune == TuneConfig{},
                  "tuned lookups take a default-tune description; the "
                  "tuner owns the knobs");
  const auto it = wisdom_.find(desc);
  if (it != wisdom_.end()) return it->second;
  if (group_ == nullptr) {
    const TuneResult r = tune_plan(dev_.spec(), desc);
    ++tune_searches_;
    tune_evaluations_ += r.evaluated;
    return wisdom_.emplace(desc, r.best).first->second;
  }
  // Group registry: tuning depends only on the GpuSpec, so same-spec
  // members share one search. Run at most one tune_plan per distinct
  // member fingerprint (reusing a member's warm wisdom when present) and
  // seed the shared entry into every same-fingerprint member registry —
  // a group of four identical cards costs one search, and the members'
  // own registries stay at zero.
  std::unordered_map<std::uint64_t, TuneConfig> by_fp;
  for (std::size_t i = 0; i < group_->size(); ++i) {
    auto& dev = group_->device(i);
    const std::uint64_t fp = spec_fingerprint(dev.spec());
    PlanRegistry& member = PlanRegistry::of(dev);
    auto found = by_fp.find(fp);
    if (found == by_fp.end()) {
      const auto warm = member.wisdom_.find(desc);
      if (warm != member.wisdom_.end()) {
        found = by_fp.emplace(fp, warm->second).first;
      } else {
        const TuneResult r = tune_plan(dev.spec(), desc);
        ++tune_searches_;
        tune_evaluations_ += r.evaluated;
        found = by_fp.emplace(fp, r.best).first;
      }
    }
    member.wisdom_.emplace(desc, found->second);
  }
  return wisdom_
      .emplace(desc, by_fp.at(spec_fingerprint(dev_.spec())))
      .first->second;
}

std::string PlanRegistry::export_wisdom() const {
  std::string out = "# repro-gpufft wisdom\n";
  out += "schema " + std::to_string(kWisdomSchemaVersion) + "\n";
  out += wisdom_header(dev_.spec());
  out += "\n";
  // Deterministic order: sort the serialized lines.
  std::vector<std::string> lines;
  lines.reserve(wisdom_.size());
  for (const auto& [desc, tune] : wisdom_) {
    lines.push_back(wisdom_line(desc, tune));
  }
  std::sort(lines.begin(), lines.end());
  for (const auto& l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

std::size_t PlanRegistry::import_wisdom(const std::string& text,
                                        std::string* reject_reason) {
  const auto reject = [&](const std::string& why) -> std::size_t {
    if (reject_reason != nullptr) *reject_reason = why;
    return 0;
  };
  std::istringstream in(text);
  std::string line;
  bool schema_ok = false;
  bool spec_ok = false;
  std::vector<std::pair<PlanDesc, TuneConfig>> parsed;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("schema ", 0) == 0) {
      // Versioned cost model: wisdom tuned under a different schema would
      // silently pin an older model's winners, so any mismatch rejects
      // the whole file — same all-or-nothing rule as the fingerprint. The
      // rest of the line must be the bare decimal version: a garbled
      // line is not this build's schema either.
      const std::string found = line.substr(7);
      unsigned version = 0;
      if (!parse_decimal(found, version) ||
          version != static_cast<unsigned>(kWisdomSchemaVersion)) {
        return reject("wisdom schema " + found +
                      " does not match this build's schema " +
                      std::to_string(kWisdomSchemaVersion) +
                      " (cost model changed; re-tune and re-save)");
      }
      schema_ok = true;
      continue;
    }
    if (!schema_ok) {
      // Pre-versioned files put the gpu header (or a plan line) first.
      return reject(
          "pre-versioned wisdom (no schema line): tuned under an older "
          "cost model; re-tune and re-save");
    }
    if (line.rfind("gpu ", 0) == 0) {
      // All-or-nothing: wisdom tuned for a different card is worse than
      // no wisdom, so a fingerprint mismatch rejects the whole file.
      if (!wisdom_header_matches(line, dev_.spec())) {
        return reject("gpu fingerprint does not match this device (" +
                      wisdom_header(dev_.spec()) + ")");
      }
      spec_ok = true;
      continue;
    }
    PlanDesc desc;
    TuneConfig tune;
    if (!parse_wisdom_line(line, desc, tune)) {
      return reject("malformed wisdom line: " + line);
    }
    parsed.emplace_back(desc, tune);
  }
  if (!schema_ok) {
    return reject(
        "pre-versioned wisdom (no schema line): tuned under an older "
        "cost model; re-tune and re-save");
  }
  if (!spec_ok) return reject("missing gpu header line");
  for (auto& [desc, tune] : parsed) {
    wisdom_.insert_or_assign(desc, tune);
  }
  return parsed.size();
}

void PlanRegistry::save_wisdom(const std::string& path) const {
  std::ofstream f(path);
  REPRO_CHECK_MSG(f.good(), "cannot open wisdom file for writing: " + path);
  f << export_wisdom();
}

std::size_t PlanRegistry::load_wisdom(const std::string& path,
                                      std::string* reject_reason) {
  std::ifstream f(path);
  if (!f.good()) {
    if (reject_reason != nullptr) {
      *reject_reason = "cannot open wisdom file: " + path;
    }
    return 0;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return import_wisdom(buf.str(), reject_reason);
}

template <typename T>
std::shared_ptr<FftPlanT<T>> PlanRegistry::build_plan(const PlanDesc& desc) {
  if (watermark_ != 0) {
    // Pre-emptive enforcement: make room for the new plan's working set
    // before construction starts allocating, so the device's *peak*
    // footprint — not just the steady state — stays under the budget.
    const std::size_t headroom = plan_headroom_bytes(desc);
    while (footprint_bytes() + headroom > watermark_ &&
           evict_for_memory(/*watermark_driven=*/true)) {
    }
  }
  for (;;) {
    try {
      return make_plan<T>(dev_, desc, group_);
    } catch (sim::OutOfDeviceMemory& e) {
      // Partially-built plans release their allocations via RAII; evict
      // the least-recently-used plan (and idle cache resources) and try
      // again until there is nothing left to give back.
      if (!evict_for_memory(/*watermark_driven=*/false)) {
        e.add_context("while building plan [" + desc.to_string() + "]");
        throw;
      }
      ++dev_.health().oom_retries;
    }
  }
}

std::size_t PlanRegistry::footprint_bytes() const {
  if (group_ == nullptr) return dev_.allocated_bytes();
  // Group working set, mirroring peak_bytes_in_flight(): the largest
  // per-member device footprint (each card has its own memory) plus the
  // host staging the resident sharded plans hold for their lifetime.
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < group_->size(); ++i) {
    bytes = std::max(bytes, group_->device(i).allocated_bytes());
  }
  return bytes + group_->host_staging_bytes();
}

std::size_t PlanRegistry::plan_headroom_bytes(const PlanDesc& desc) {
  const std::size_t esize = desc.precision == Precision::F64
                                ? sizeof(cx<double>)
                                : sizeof(cxf);
  std::size_t elems = desc.buffer_elements();
  std::size_t host_staging = 0;
  if (desc.z_decimated() && desc.splits != 0) {
    // Streaming plans never hold the full volume on a card: their device
    // working set is the double-buffered slab pair. Sharded plans do hold
    // the full exchange volume in host staging for their lifetime, which
    // the group footprint counts.
    if (desc.kind == PlanKind::Sharded3D) {
      host_staging = elems * esize;
    }
    const std::size_t n = desc.shape.nx;
    elems = n * n * std::max(n / desc.splits, desc.splits);
  }
  // Data (or slab pair) plus an equal-size workspace lease.
  return 2 * elems * esize + host_staging;
}

bool PlanRegistry::evict_for_memory(bool watermark_driven) {
  ResourceCache::TrimResult trimmed;
  bool dropped_plan = false;
  if (!lru_.empty()) {
    index_.erase(lru_.back().desc);
    lru_.pop_back();  // the plan dies here unless a caller still holds it
    ++evictions_;
    ++byte_evictions_;
    dropped_plan = true;
  }
  // Trim after the drop: the evicted plan's twiddle references are gone,
  // so its tables are now reclaimable.
  trim_caches(trimmed);
  const std::size_t items = trimmed.items + (dropped_plan ? 1 : 0);
  // A group registry charges its evictions to its primary device.
  if (watermark_driven) {
    dev_.health().watermark_evictions += items;
  } else {
    dev_.health().oom_evictions += items;
  }
  return dropped_plan || trimmed.items != 0;
}

void PlanRegistry::trim_caches(ResourceCache::TrimResult& total) {
  auto add = [&total](const ResourceCache::TrimResult& r) {
    total.bytes += r.bytes;
    total.items += r.items;
  };
  if (group_ == nullptr) {
    add(ResourceCache::of(dev_).trim_idle());
    return;
  }
  for (std::size_t i = 0; i < group_->size(); ++i) {
    add(ResourceCache::of(group_->device(i)).trim_idle());
  }
}

void PlanRegistry::set_byte_watermark(std::size_t bytes) {
  watermark_ = bytes;
  if (group_ == nullptr) {
    ResourceCache::of(dev_).set_byte_watermark(bytes);
    return;
  }
  for (std::size_t i = 0; i < group_->size(); ++i) {
    ResourceCache::of(group_->device(i)).set_byte_watermark(bytes);
  }
}

std::shared_ptr<void>* PlanRegistry::find(const PlanDesc& desc) {
  const auto it = index_.find(desc);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh to MRU
  return &it->second->plan;
}

void PlanRegistry::insert(const PlanDesc& desc, std::shared_ptr<void> plan) {
  lru_.push_front(Entry{desc, std::move(plan)});
  index_[desc] = lru_.begin();
  evict_to_capacity();
}

void PlanRegistry::evict_to_capacity() {
  while (index_.size() > capacity_) {
    index_.erase(lru_.back().desc);
    lru_.pop_back();
    ++evictions_;
  }
}

void PlanRegistry::set_capacity(std::size_t capacity) {
  REPRO_CHECK(capacity > 0);
  capacity_ = capacity;
  evict_to_capacity();
}

void PlanRegistry::clear() {
  index_.clear();
  lru_.clear();
}

template std::shared_ptr<FftPlanT<float>> make_plan<float>(
    Device&, const PlanDesc&, sim::DeviceGroup*);
template std::shared_ptr<FftPlanT<double>> make_plan<double>(
    Device&, const PlanDesc&, sim::DeviceGroup*);
template std::shared_ptr<FftPlanT<float>>
PlanRegistry::get_or_create_as<float>(const PlanDesc&);
template std::shared_ptr<FftPlanT<double>>
PlanRegistry::get_or_create_as<double>(const PlanDesc&);
template std::shared_ptr<FftPlanT<float>>
PlanRegistry::get_or_create_tuned_as<float>(const PlanDesc&);
template std::shared_ptr<FftPlanT<double>>
PlanRegistry::get_or_create_tuned_as<double>(const PlanDesc&);

}  // namespace repro::gpufft
