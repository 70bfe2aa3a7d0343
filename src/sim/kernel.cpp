#include "sim/kernel.h"

#include <algorithm>
#include <iterator>

namespace repro::sim {

void LaunchStats::merge(LaunchStats&& block) {
  elem_bytes_loaded += block.elem_bytes_loaded;
  elem_bytes_stored += block.elem_bytes_stored;
  tex_elem_bytes += block.tex_elem_bytes;
  sampled_elem_bytes += block.sampled_elem_bytes;
  sampled_txn_bytes += block.sampled_txn_bytes;
  coalesced_slots += block.coalesced_slots;
  uncoalesced_slots += block.uncoalesced_slots;
  shmem_thread_cycles += block.shmem_thread_cycles;
  const_thread_cycles += block.const_thread_cycles;
  sampled_tex_elem_bytes += block.sampled_tex_elem_bytes;
  sampled_tex_miss_bytes += block.sampled_tex_miss_bytes;
  warp_streams.insert(warp_streams.end(),
                      std::make_move_iterator(block.warp_streams.begin()),
                      std::make_move_iterator(block.warp_streams.end()));
}

void account_global_slot(std::span<const LaneAccess> lanes,
                         std::vector<Transaction>& stream,
                         LaunchStats& stats) {
  for (const LaneAccess& a : lanes) stats.sampled_elem_bytes += a.bytes;
  const CoalesceResult r = coalesce_half_warp(lanes);
  if (r.coalesced) {
    ++stats.coalesced_slots;
  } else {
    ++stats.uncoalesced_slots;
  }
  for (const Transaction& txn : r.transactions) {
    stats.sampled_txn_bytes += txn.bytes;
    stream.push_back(txn);
  }
}

std::uint64_t const_slot_cycles(std::vector<std::uint64_t>& addrs) {
  const std::size_t lanes = addrs.size();
  std::sort(addrs.begin(), addrs.end());
  const auto distinct = static_cast<std::size_t>(
      std::unique(addrs.begin(), addrs.end()) - addrs.begin());
  return distinct * lanes;
}

BlockCtx::BlockCtx(const LaunchConfig& cfg, LaunchStats& stats,
                   const SimOptions& opt, unsigned block_index,
                   bool recording, std::size_t tex_cache_lines,
                   int shmem_banks, StoreTarget* capture)
    : cfg_(cfg),
      stats_(stats),
      opt_(opt),
      block_(block_index),
      recording_(recording),
      shmem_banks_(shmem_banks),
      capture_(capture),
      shmem_(cfg.shmem_per_block) {
  if (recording_) {
    const std::size_t n = cfg.threads_per_block;
    stats_.warp_streams.resize((n + 31) / 32);
    glog_.resize(n);
    slog_.resize(n);
    clog_.resize(n);
    gcount_.assign(n, 0);
    scount_.assign(n, 0);
    ccount_.assign(n, 0);
    tcount_.assign(n, 0);
    tex_tags_.assign(tex_cache_lines, -1);
  }
}

void BlockCtx::record_texture_impl(unsigned tid, std::uint64_t addr,
                                   std::uint32_t bytes) {
  // Direct-mapped per-SM texture cache with 32-byte lines; every missed
  // line becomes a DRAM transaction on this thread's warp stream.
  stats_.sampled_tex_elem_bytes += bytes;
  if (tex_tags_.empty()) {
    return;
  }
  const std::uint64_t first_line = addr / kMinTransactionBytes;
  const std::uint64_t last_line =
      (addr + bytes - 1) / kMinTransactionBytes;
  auto& stream = stats_.warp_streams[tid / 32];
  for (std::uint64_t line = first_line; line <= last_line; ++line) {
    auto& tag = tex_tags_[line % tex_tags_.size()];
    if (tag != static_cast<std::int64_t>(line)) {
      tag = static_cast<std::int64_t>(line);
      stats_.sampled_tex_miss_bytes += kMinTransactionBytes;
      stream.push_back(
          Transaction{line * kMinTransactionBytes, kMinTransactionBytes});
    }
  }
}

namespace {

/// Slots of the half-warp of threads [t0, t1) in `logs`: its longest log.
template <typename Log>
std::size_t slot_count(const std::vector<Log>& logs, unsigned t0,
                       unsigned t1) {
  std::size_t n = 0;
  for (unsigned t = t0; t < t1; ++t) n = std::max(n, logs[t].size());
  return n;
}

}  // namespace

void BlockCtx::end_phase() {
  if (!recording_) {
    return;
  }
  const unsigned nthreads = cfg_.threads_per_block;
  std::vector<LaneAccess> lanes;
  std::vector<ShmemLaneAccess> sh_lanes;
  std::vector<std::uint64_t> addrs;
  for (unsigned t0 = 0; t0 < nthreads; t0 += 16) {
    const unsigned t1 = std::min(t0 + 16, nthreads);

    // --- global memory: coalesced into the warp's DRAM stream ---
    auto& stream = stats_.warp_streams[t0 / 32];
    for (std::size_t s = 0, n = slot_count(glog_, t0, t1); s < n; ++s) {
      lanes.clear();
      for (unsigned t = t0; t < t1; ++t) {
        if (s < glog_[t].size()) {
          const GlobalAccess& a = glog_[t][s];
          lanes.push_back(
              LaneAccess{static_cast<int>(t - t0), a.addr, a.bytes});
        }
      }
      account_global_slot(lanes, stream, stats_);
    }

    // --- shared memory: bank-conflict degree ---
    for (std::size_t s = 0, n = slot_count(slog_, t0, t1); s < n; ++s) {
      sh_lanes.clear();
      for (unsigned t = t0; t < t1; ++t) {
        if (s < slog_[t].size()) {
          sh_lanes.push_back(ShmemLaneAccess{static_cast<int>(t - t0),
                                             slog_[t][s].word,
                                             slog_[t][s].words});
        }
      }
      const int degree = shmem_conflict_degree(sh_lanes, shmem_banks_);
      stats_.shmem_thread_cycles +=
          static_cast<std::uint64_t>(degree) * sh_lanes.size();
    }

    // --- constant memory: distinct addresses serialize ---
    for (std::size_t s = 0, n = slot_count(clog_, t0, t1); s < n; ++s) {
      addrs.clear();
      for (unsigned t = t0; t < t1; ++t) {
        if (s < clog_[t].size()) addrs.push_back(clog_[t][s]);
      }
      stats_.const_thread_cycles += const_slot_cycles(addrs);
    }
  }

  for (auto& v : glog_) v.clear();
  for (auto& v : slog_) v.clear();
  for (auto& v : clog_) v.clear();
}

}  // namespace repro::sim
