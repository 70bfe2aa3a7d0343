#include "sim/dram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace repro::sim {

DramModel::DramModel(const DramSpec& spec, double pin_bandwidth_gbs)
    : spec_(spec) {
  REPRO_CHECK(spec.channels > 0 && spec.banks_per_channel > 0);
  REPRO_CHECK(spec.row_bytes > 0 && spec.interleave > 0);
  // One channel carries 1/channels of the pin bandwidth; command overhead
  // (peak_efficiency) is applied to the per-byte bus time so a perfect
  // stream lands at peak_efficiency * pin bandwidth.
  const double channel_gbs =
      pin_bandwidth_gbs / spec.channels * spec.peak_efficiency;
  ns_per_byte_channel_ = 1.0 / channel_gbs;  // GB/s == bytes/ns
}

DramModel::Loc DramModel::locate(std::uint64_t addr) const {
  // Swizzled partition interleave: real G8x memory controllers fold higher
  // address bits into the partition (channel) and bank selection so that
  // power-of-two strides do not camp on a single partition — without this,
  // a naive transpose's stride-2KB writes would serialize on one channel,
  // which neither real hardware nor the paper's Table 6 shows.
  const std::uint64_t blk = addr / spec_.interleave;
  const std::uint64_t cmix = blk ^ (blk >> 4) ^ (blk >> 9);
  const int channel = static_cast<int>(cmix % spec_.channels);
  const std::uint64_t caddr =
      (blk / spec_.channels) * spec_.interleave + (addr % spec_.interleave);
  const std::uint64_t row_id = caddr / spec_.row_bytes;
  const std::uint64_t bmix = row_id ^ (row_id >> 3) ^ (row_id >> 7);
  const int bank = static_cast<int>(bmix % spec_.banks_per_channel);
  const auto row = static_cast<std::int64_t>(row_id / spec_.banks_per_channel);
  return {channel, bank, row};
}

double DramModel::ideal_time_ns(std::uint64_t bytes) const {
  // All channels busy, no row misses.
  return static_cast<double>(bytes) * ns_per_byte_channel_ / spec_.channels;
}

std::vector<double> DramModel::spread_penalties(
    const std::vector<Transaction>& stream) const {
  // For each transaction, estimate the spatial density of its own access
  // cluster: the distance to the 8th-nearest address among the warp's
  // neighbouring transactions (a +-16 window). Using nearest-neighbour
  // distances rather than the raw window range keeps a kernel's read and
  // write streams (which live in different buffers) from polluting each
  // other's locality estimate. Transactions whose cluster spans more than
  // spread_threshold_bytes pay extra channel time, saturating after
  // 2^spread_log_range times the threshold.
  std::vector<double> out(stream.size(), 0.0);
  if (stream.empty() || spec_.spread_penalty_ns <= 0.0) {
    return out;
  }
  constexpr std::size_t kHalfWindow = 16;
  constexpr std::size_t kNeighbour = 8;
  std::vector<std::uint64_t> dist;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::size_t lo = i >= kHalfWindow ? i - kHalfWindow : 0;
    const std::size_t hi = std::min(stream.size(), i + kHalfWindow + 1);
    dist.clear();
    for (std::size_t j = lo; j < hi; ++j) {
      if (j == i) continue;
      const std::uint64_t a = stream[i].addr;
      const std::uint64_t b = stream[j].addr;
      dist.push_back(a > b ? a - b : b - a);
    }
    if (dist.size() < kNeighbour) continue;
    std::nth_element(dist.begin(), dist.begin() + (kNeighbour - 1),
                     dist.end());
    const double cluster_spread =
        4.0 * static_cast<double>(dist[kNeighbour - 1]);
    const double threshold =
        static_cast<double>(spec_.spread_threshold_bytes);
    if (cluster_spread > threshold) {
      const double f = std::min(
          1.0, std::log2(cluster_spread / threshold) / spec_.spread_log_range);
      out[i] = spec_.spread_penalty_ns * f;
    }
  }

  // Scattered transactions hide behind interleaved well-localized traffic
  // (the controller fills the activate latency with the tight stream's
  // bursts): scale each penalty by the fraction of penalized neighbours,
  // so a mixed D-read/A-write kernel pays roughly half of a pure-D one —
  // matching Table 4's "one good side rescues the slot" behaviour.
  std::vector<double> scaled(out.size(), 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] <= 0.0) continue;
    const std::size_t lo = i >= kHalfWindow ? i - kHalfWindow : 0;
    const std::size_t hi = std::min(out.size(), i + kHalfWindow + 1);
    std::size_t penalized = 0;
    for (std::size_t j = lo; j < hi; ++j) {
      if (out[j] > 0.0) ++penalized;
    }
    scaled[i] = out[i] * static_cast<double>(penalized) /
                static_cast<double>(hi - lo);
  }
  return scaled;
}

double DramModel::replay(std::span<const std::vector<Transaction>> streams) {
  // Per-channel bus cursor and per-bank state.
  const int nch = spec_.channels;
  const int nbk = spec_.banks_per_channel;
  std::vector<double> chan_free(static_cast<std::size_t>(nch), 0.0);
  std::vector<Bank> banks(static_cast<std::size_t>(nch) * nbk);

  // Per-transaction locality penalty: the byte spread of a sliding window
  // of the owning warp's accesses, mapped onto extra channel time. This is
  // the observable the paper's Table 3/4 isolates — access patterns whose
  // 16 per-thread streams stay within tens of kilobytes behave like the
  // single-stream copy, while megabyte-spread patterns lose ~40%.
  std::vector<std::vector<double>> penalty(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    penalty[s] = spread_penalties(streams[s]);
  }

  // Round-robin across warp streams: the controller services one pending
  // transaction per resident warp in turn, which is how neighbouring warps
  // end up reusing each other's open rows.
  std::vector<std::size_t> pos(streams.size(), 0);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (pos[s] >= streams[s].size()) continue;
      any = true;
      const std::size_t idx = pos[s]++;
      const Transaction& t = streams[s][idx];
      const double extra_ns = penalty[s][idx];
      const Loc loc = locate(t.addr);
      Bank& bank = banks[static_cast<std::size_t>(loc.channel) * nbk +
                         loc.bank];
      const bool miss = bank.open_row != loc.row;
      double start;
      if (miss) {
        // Precharge+activate can issue once the bank is free AND the
        // row-cycle time since its previous activate has elapsed (tRC —
        // the constraint that makes streams which keep opening new rows on
        // few banks slow even when many warps interleave). If the bank has
        // been idle long enough, both are in the past and the activation
        // is fully hidden behind other banks' transfers.
        const double act_issue =
            std::max(bank.ready_ns,
                     bank.last_activate_ns + spec_.row_cycle_ns);
        // The controller sees queued requests ahead of time and issues the
        // precharge/activate early, hiding up to lookahead_ns of the
        // tRP+tRCD latency behind other banks' transfers.
        const double exposed_miss =
            std::max(0.0, spec_.row_miss_ns - spec_.lookahead_ns);
        const double data_ready = act_issue + exposed_miss;
        // The activate also occupies the channel's command bus briefly.
        start = std::max(data_ready, chan_free[loc.channel]) +
                spec_.activate_channel_ns + extra_ns;
        bank.last_activate_ns = act_issue;
      } else {
        start = std::max(bank.ready_ns, chan_free[loc.channel]) + extra_ns;
      }
      const double burst = t.bytes * ns_per_byte_channel_;
      const double end = start + burst;
      chan_free[loc.channel] = end;
      bank.ready_ns = end;
      bank.open_row = loc.row;
    }
  }
  double elapsed = 0.0;
  for (double c : chan_free) elapsed = std::max(elapsed, c);
  return elapsed;
}

double DramModel::replay_one(const std::vector<Transaction>& stream) {
  return replay(std::span<const std::vector<Transaction>>(&stream, 1));
}

double DramModel::effective_bandwidth_gbs(
    std::span<const std::vector<Transaction>> streams) {
  std::uint64_t bytes = 0;
  for (const auto& s : streams) {
    for (const auto& t : s) bytes += t.bytes;
  }
  if (bytes == 0) return 0.0;
  const double ns = replay(streams);
  return ns > 0.0 ? static_cast<double>(bytes) / ns : 0.0;
}

}  // namespace repro::sim
