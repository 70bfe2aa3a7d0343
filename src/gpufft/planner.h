// Plan-time autotuner: search the TuneConfig space with the simulator's
// own cost model.
//
// tune_plan() enumerates every candidate of its fixed search space and
// scores each one *without executing anything*: per plan step it takes the
// launch the kernel itself would issue (rank_config, fine_config,
// real_fine_config and mixed_axis_config are the kernels' config()) plus a
// synthetic sim::LaunchStats — sampled per-warp DRAM transaction streams
// over the rank kernels' own RankWalk and the mixed-radix kernel's own
// MixedAxisWalk, and closed-form shared/constant/texture
// serialization totals for the fine step from run_fine_stages' own
// exchange addresses — and feeds both to sim::estimate_launch. Streamed
// kinds price the slab plan the executor builds (slab_plan_desc) through
// the same dispatch. The argmin is the tuned config. Because the scoring
// path is the very model the simulated Device charges at execute() time,
// the tuner rediscovers the paper's Table-2 configuration on the
// 8800-class specs and finds different winners when the spec is mutated
// (register file, shared-memory bank count, bus width).
//
// The coarse steps' access patterns are not searched: the rank kernels fix
// them as Table 2 does (read D; write A for rank 1, B for rank 2), and
// bench_access_patterns measures every other pairing with copy kernels
// (Tables 3/4).
//
// The default TuneConfig is scored first and a challenger must beat the
// incumbent by a relative margin, so modeling ties (and sub-resolution
// differences) resolve to the paper's published configuration.
//
// PlanRegistry persists winners as human-readable "wisdom" keyed by a
// fingerprint of the model-relevant GpuSpec fields; the serialization
// helpers live here so the registry stays a cache.
#pragma once

#include <cstdint>
#include <string>

#include "gpufft/plan_desc.h"
#include "gpufft/sharded.h"
#include "sim/spec.h"

namespace repro::gpufft {

/// Version of the wisdom schema / cost model. Bumped whenever a tuned
/// config's meaning changes (a new knob, a re-derived cost term): stale
/// wisdom would silently pin yesterday's winners, so import_wisdom
/// rejects any file whose schema line is missing (pre-versioned files
/// from older builds) or different — all-or-nothing, like a GpuSpec
/// fingerprint mismatch.
inline constexpr int kWisdomSchemaVersion = 4;

/// Outcome of one tuning search.
struct TuneResult {
  TuneConfig best{};
  double model_ms{0.0};    ///< modeled plan time of `best`
  double default_ms{0.0};  ///< modeled plan time of the default TuneConfig
  std::size_t evaluated{0};  ///< candidate configs scored
};

/// Closed-form model time (ms) of one candidate config for `desc` on
/// `spec`. Returns +infinity for infeasible candidates (occupancy failure,
/// indivisible radix or slab depth). Supported kinds: Bandwidth3D,
/// Mixed3D, Real3D, OutOfCore, Sharded3D, BatchSharded3D.
double model_plan_ms(const sim::GpuSpec& spec, const PlanDesc& desc,
                     const TuneConfig& cfg);

/// Modeled DRAM byte amplification (bytes moved / bytes useful) of the
/// Mixed3D plan's pitch-sensitive Y-axis pass under `pitch` — the very
/// ratio tune_plan weighs when deciding whether to pad non-pow2 rows.
/// Dense non-pow2 rows start off G80's 64/128-byte segment boundaries, so
/// most half-warp slots fall back to sixteen 32-byte transactions (4x for
/// a cx<float>); a padded 16-element pitch restores segment transfers.
double mixed_pitch_amplification(const sim::GpuSpec& spec, Shape3 shape,
                                 PitchMode pitch);

/// Exhaustive search of the fixed candidate lists (planner.cpp); a pure
/// function of (spec, desc) — deterministic and execution-free.
TuneResult tune_plan(const sim::GpuSpec& spec, const PlanDesc& desc);

/// FNV-1a fingerprint over the GpuSpec fields the cost model reads.
/// Wisdom is only valid on the spec it was tuned for.
std::uint64_t spec_fingerprint(const sim::GpuSpec& spec);

/// "gpu <name> fp=0x<hex>" header line of a wisdom file.
std::string wisdom_header(const sim::GpuSpec& spec);
/// True when `line` is a wisdom header whose fingerprint matches `spec`.
bool wisdom_header_matches(const std::string& line, const sim::GpuSpec& spec);

/// One wisdom entry: "plan <desc fields> | <tune fields>".
std::string wisdom_line(const PlanDesc& desc, const TuneConfig& tune);
/// Parse a wisdom_line(); false on malformed input, which includes a
/// missing, repeated or unknown field on either side (a truncated or
/// garbled line) and a config tune_plan cannot return for the description
/// (a grid override, or a knob off the search's candidate lists), and
/// leaves both outputs untouched. `desc.tune` is left at the default (the
/// key side never carries a config).
bool parse_wisdom_line(const std::string& line, PlanDesc& desc,
                       TuneConfig& tune);

/// The planner's slab-vs-pencil call for a sharded 3-D plan of `devices`
/// cards on `topo`: both feasible decompositions are scored with
/// topology_model_ms (whose exchange cost is keyed on the fabric's link
/// model and bisection_gbs()) and the argmin wins. Fabrics where pencil
/// cannot resolve (host-staged trees, too few devices) return Slab
/// without probing.
Decomposition choose_decomposition(const sim::Topology& topo,
                                   const sim::GpuSpec& spec, std::size_t n,
                                   std::size_t shards, std::size_t devices,
                                   Direction dir);

}  // namespace repro::gpufft
