// Tunable plan parameters: the paper's Table-2 constants as one value type.
//
// Every knob the five-step plans used to hard-code — twiddle placement,
// grid shape, threads per block, the coarse radix split, the fine kernel's
// anti-bank-conflict pad, the streamed plans' slab depth and the Mixed3D
// row pitch — lives in TuneConfig. A default-constructed TuneConfig
// reproduces the paper's published configuration bit-for-bit; the planner
// (planner.h) searches this space per (GpuSpec, PlanDesc) and the registry
// persists winners as human-readable wisdom. TuneConfig is part of
// PlanDesc identity, so tuned and default plans of the same shape can
// never alias in the PlanRegistry. The coarse steps' Table-2 access
// patterns are not a knob: the rank kernels fix them (RankWalk in
// rank_kernels.h).
#pragma once

#include <charconv>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "gpufft/types.h"

namespace repro::gpufft {

/// The paper's block size for every non-cooperative kernel (Section 3.1).
/// Single source of truth — kernels default their threads_per_block here.
inline constexpr unsigned kDefaultThreadsPerBlock = 64;

/// Fine-kernel shared-exchange pad stride: one extra word every 16 keeps
/// the power-of-two butterfly strides off a 16-bank conflict (Section 3.2).
inline constexpr unsigned kDefaultShmemPadWords = 16;

/// Row-pitch layout of a non-pow2 (Mixed3D) volume — a planner decision.
/// Dense packs rows back-to-back; Padded rounds each X row up to a
/// 16-element (128-byte at cxf) boundary so every row starts on a G80
/// coalescing segment, trading footprint for aligned half-warp accesses.
enum class PitchMode { Dense, Padded };

inline const char* pitch_mode_name(PitchMode p) {
  return p == PitchMode::Dense ? "dense" : "padded";
}

/// Padded row pitch in elements: nx rounded up to a multiple of 16.
inline constexpr std::size_t padded_row_pitch(std::size_t nx) {
  return (nx + 15) / 16 * 16;
}

/// One point in the plan tuning space. Defaults are the paper's Table-2
/// choices; the planner treats each field as a searched dimension.
struct TuneConfig {
  TwiddleSource coarse_twiddles{TwiddleSource::Registers};  ///< steps 1-4
  TwiddleSource fine_twiddles{TwiddleSource::Texture};      ///< step 5
  /// Explicit grid size; 0 defers to blocks_per_sm (the normal case).
  unsigned grid_blocks{0};
  /// Grid = blocks_per_sm * num_sms when grid_blocks is 0 (paper: 3).
  unsigned blocks_per_sm{3};
  /// Block size of the coarse/rank kernels; the fine kernel raises it to
  /// nx/4 when one transform group needs more threads.
  unsigned threads_per_block{kDefaultThreadsPerBlock};
  /// Preferred rank-2 factor f1 of the n = f1*f2 coarse split (paper: 16,
  /// the register-budget sweet spot of Section 3.1).
  unsigned coarse_radix{16};
  /// Fine-kernel shared-memory pad stride in words (0 = no padding).
  unsigned shmem_pad_words{kDefaultShmemPadWords};
  /// Streamed plans (out-of-core / sharded): slab decimation override;
  /// 0 = the plan description's own `splits`.
  std::size_t slab_depth{0};
  /// Row-pitch layout of Mixed3D (non-pow2) volumes. Searched by the
  /// planner for that kind only; pow2 kinds keep Dense (their rows are
  /// already segment-aligned), so default plans stay bit-identical.
  PitchMode pitch{PitchMode::Dense};

  friend bool operator==(const TuneConfig&, const TuneConfig&) = default;

  /// FNV-1a over the fields (mixed into PlanDesc::hash()).
  [[nodiscard]] std::size_t hash() const {
    return static_cast<std::size_t>(fnv1a(
        {static_cast<std::uint64_t>(coarse_twiddles),
         static_cast<std::uint64_t>(fine_twiddles), grid_blocks,
         blocks_per_sm, threads_per_block, coarse_radix, shmem_pad_words,
         slab_depth, static_cast<std::uint64_t>(pitch)}));
  }

  /// Grid size on `gpu`: the explicit override, or blocks_per_sm per SM.
  [[nodiscard]] unsigned grid_for(const sim::GpuSpec& gpu) const {
    if (grid_blocks != 0) return grid_blocks;
    return blocks_per_sm * static_cast<unsigned>(gpu.num_sms);
  }

  [[nodiscard]] std::string to_string() const;
};

/// Twiddle-source short names used by to_string and the wisdom format.
const char* twiddle_source_name(TwiddleSource t);
/// Parse a twiddle_source_name (returns false on unknown token).
bool parse_twiddle_source(const std::string& s, TwiddleSource& out);

/// Split space-separated "key=value" tokens into the value of each of
/// `keys`, in that order. False unless every key appears exactly once and
/// no other token does: the wisdom format always writes every field, so a
/// missing, repeated or unknown key means a truncated or garbled line.
bool parse_fields(const std::string& s,
                  std::span<const std::string_view> keys,
                  std::vector<std::string>& values);

/// Parse an all-digit decimal into the unsigned `out`; false on a sign, a
/// suffix, an empty string or a value `out` cannot hold.
template <typename U>
bool parse_decimal(const std::string& s, U& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// Round-trip parse of TuneConfig::to_string() (the wisdom format). Every
/// field must appear exactly once with a well-formed value; anything else
/// fails the parse and leaves `out` untouched.
bool parse_tune_config(const std::string& s, TuneConfig& out);

}  // namespace repro::gpufft
