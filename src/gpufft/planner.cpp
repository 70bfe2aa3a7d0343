#include "gpufft/planner.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iterator>
#include <limits>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "gpufft/fine_kernel.h"
#include "gpufft/outofcore.h"
#include "gpufft/rank_kernels.h"
#include "gpufft/real_kernels.h"
#include "gpufft/smallfft.h"
#include "gpufft/stage_engine.h"
#include "sim/coalesce.h"
#include "sim/occupancy.h"
#include "sim/pcie.h"
#include "sim/timing.h"

namespace repro::gpufft {
namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

// The search space, one candidate list per knob in search order. Together
// they cover every value the executors accept.
constexpr std::array<unsigned, 3> kThreadsPerBlock{64, 128, 256};
constexpr std::array<unsigned, 4> kBlocksPerSm{1, 2, 3, 4};
constexpr std::array<unsigned, 2> kCoarseRadix{16, 8};
constexpr std::array<unsigned, 3> kShmemPadWords{0, 8, 16};
constexpr std::array<TwiddleSource, 4> kCoarseTwiddles{
    TwiddleSource::Registers, TwiddleSource::Constant, TwiddleSource::Texture,
    TwiddleSource::Recompute};
/// Registers is deliberately absent: the simulator charges nothing for a
/// register-resident table, but the fine kernel's twiddle index depends
/// on the stage loop variable, so on real G80 hardware a full-table
/// register build would spill — the model-only win is not executable.
constexpr std::array<TwiddleSource, 3> kFineTwiddles{
    TwiddleSource::Texture, TwiddleSource::Constant, TwiddleSource::Recompute};
/// Slab decimation overrides tried for Z-decimated plans (0 = keep the
/// description's splits); in-core kinds search only 0.
constexpr std::array<std::size_t, 6> kSlabDepths{0, 2, 4, 8, 16, 32};
/// Row layouts tried for Mixed3D plans: dense rows versus rows padded to
/// a 16-element pitch so every row start lands on a coalescing segment
/// boundary. Other kinds always keep the dense default.
constexpr std::array<PitchMode, 2> kPitchModes{PitchMode::Dense,
                                               PitchMode::Padded};

/// The slab overrides searched for `desc`.
std::span<const std::size_t> slab_candidates(const PlanDesc& desc) {
  static constexpr std::size_t kKeepSplits[] = {0};
  return desc.z_decimated() ? std::span<const std::size_t>(kSlabDepths)
                            : kKeepSplits;
}

/// The row layouts searched for `desc`. The row-pitch knob only exists for
/// the mixed-radix executor; every other kind keeps the dense default so
/// its candidate count (and the wisdom it pins) is untouched by this
/// dimension.
std::span<const PitchMode> pitch_candidates(const PlanDesc& desc) {
  static constexpr PitchMode kDenseOnly[] = {PitchMode::Dense};
  return desc.kind == PlanKind::Mixed3D
             ? std::span<const PitchMode>(kPitchModes)
             : kDenseOnly;
}

/// Whether tune_plan can return `t` for `desc`: no grid override, and
/// every knob on its candidate list (the default is on each of them).
bool searchable(const PlanDesc& desc, const TuneConfig& t) {
  const auto on = [](const auto& list, const auto& v) {
    return std::find(std::begin(list), std::end(list), v) != std::end(list);
  };
  return t.grid_blocks == 0 && on(kCoarseTwiddles, t.coarse_twiddles) &&
         on(kFineTwiddles, t.fine_twiddles) &&
         on(kThreadsPerBlock, t.threads_per_block) &&
         on(kBlocksPerSm, t.blocks_per_sm) &&
         on(kCoarseRadix, t.coarse_radix) &&
         on(kShmemPadWords, t.shmem_pad_words) &&
         on(slab_candidates(desc), t.slab_depth) &&
         on(pitch_candidates(desc), t.pitch);
}

/// A challenger must beat the incumbent by this relative margin; ties
/// within the model's resolution keep the earlier (default-first)
/// candidate.
constexpr double kImprovementMargin = 1e-2;

/// Memoized per-step scores: many candidates share coarse or fine
/// sub-configurations, so each distinct synthetic launch is costed once.
using Memo = std::unordered_map<std::uint64_t, double>;

/// Miss bytes of `fetch_bytes` of twiddle fetches against the per-SM
/// direct-mapped texture cache: one cold fill of the table footprint per
/// block, plus capacity misses when the table aliases (a table larger than
/// the cache keeps evicting itself — BlockCtx's line-tag model thrashes on
/// every aliased stride, so roughly the non-resident fraction of every
/// fetch misses).
std::uint64_t texture_miss_bytes(const sim::GpuSpec& spec,
                                 std::uint64_t table_bytes,
                                 std::uint64_t fetch_bytes, unsigned grid) {
  const auto cache = static_cast<std::uint64_t>(spec.texture_cache_bytes);
  std::uint64_t miss = static_cast<std::uint64_t>(grid) *
                       std::min<std::uint64_t>(table_bytes, cache);
  if (table_bytes > cache && table_bytes > 0) {
    const double resident =
        static_cast<double>(cache) / static_cast<double>(table_bytes);
    miss += static_cast<std::uint64_t>(
        (1.0 - resident) * static_cast<double>(fetch_bytes));
  }
  return miss;
}

/// The occupancy probe: false when a block of `c` cannot be resident on
/// `spec` at all.
bool launchable(const sim::GpuSpec& spec, const sim::LaunchConfig& c) {
  try {
    sim::compute_occupancy(
        spec, sim::BlockResources{static_cast<int>(c.threads_per_block),
                                  c.regs_per_thread, c.shmem_per_block});
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Coarse (rank-kernel) step model
// ---------------------------------------------------------------------------

/// Score one coarse step: the rank kernel's own launch, plus a synthetic
/// sample of its memory behaviour replayed through sim::estimate_launch —
/// per-warp transaction streams over the kernels' x-innermost item walk,
/// each item's loads and stores at the very RankWalk addresses the kernel
/// issues.
double coarse_step_ms(const sim::GpuSpec& spec, const CoarseRankStep& st,
                      const PlanDesc& d) {
  const TuneConfig& cfg = d.tune;
  const bool fp64 = d.precision == Precision::F64;
  RankKernelParams p = RankKernelParams::tuned(cfg, spec, d.dir);
  p.in_shape = st.in_shape;
  const sim::LaunchConfig c = rank_config(p, st.rank1, fp64);
  if (!launchable(spec, c)) return kInfeasible;

  const RankWalk walk(st.in_shape, st.rank1);
  const std::size_t l = walk.L;
  const std::size_t esize = fp64 ? 16 : 8;  // sizeof(cx<T>)
  const std::size_t volume = walk.items * l;
  const unsigned grid = c.grid_blocks;
  const unsigned tpb = c.threads_per_block;
  const TwiddleSource tw =
      st.rank1 ? cfg.coarse_twiddles : TwiddleSource::Registers;

  sim::LaunchStats stats;
  stats.elem_bytes_loaded = volume * esize;
  stats.elem_bytes_stored = volume * esize;

  const std::uint64_t in_base = 0;
  const std::uint64_t out_base = (volume * esize + 255) / 256 * 256;

  const unsigned wpb = (tpb + 31) / 32;
  const std::size_t total_warps = static_cast<std::size_t>(grid) * wpb;
  const std::size_t sampled_warps = std::min<std::size_t>(total_warps, 64);
  stats.warp_streams.resize(sampled_warps);
  const auto threads = static_cast<std::size_t>(grid) * tpb;
  const std::size_t per_thread = (walk.items + threads - 1) / threads;
  const std::size_t rounds = std::min<std::size_t>(per_thread, 6);

  std::vector<sim::LaneAccess> lanes;
  std::array<std::uint64_t, 16> lane0{};  // each lane's point-0 address
  for (std::size_t w = 0; w < sampled_warps; ++w) {
    auto& stream = stats.warp_streams[w];
    for (std::size_t r = 0; r < rounds; ++r) {
      for (unsigned half = 0; half < 2; ++half) {
        // One item per lane, consecutive items on consecutive lanes; the
        // kernels issue the l loads, then the l stores, slot-aligned
        // across the half-warp.
        const std::size_t item0 = w * 32 + half * 16 + r * threads;
        if (item0 >= walk.items) continue;
        const std::size_t n_lanes =
            std::min<std::size_t>(16, walk.items - item0);
        for (const bool store : {false, true}) {
          const std::uint64_t base = store ? out_base : in_base;
          const std::size_t stride =
              store ? walk.store_stride : walk.load_stride;
          for (std::size_t ln = 0; ln < n_lanes; ++ln) {
            const std::size_t item = item0 + ln;
            lane0[ln] = base + (store ? walk.store_base(item)
                                      : walk.load_base(item)) *
                                   esize;
          }
          for (std::size_t q = 0; q < l; ++q) {
            lanes.clear();
            for (std::size_t ln = 0; ln < n_lanes; ++ln) {
              lanes.push_back(sim::LaneAccess{
                  static_cast<int>(ln), lane0[ln] + stride * q * esize,
                  static_cast<std::uint32_t>(esize)});
            }
            sim::account_global_slot(lanes, stream, stats);
            if (st.rank1 && tw == TwiddleSource::Constant) {
              // Inter-rank twiddle W^(c*k): c is constant across the
              // x-consecutive half-warp, so the constant load broadcasts.
              stats.const_thread_cycles += lanes.size();
            }
          }
        }
      }
    }
  }
  if (st.rank1 && tw == TwiddleSource::Texture) {
    stats.tex_elem_bytes = walk.items * (l - 1) * esize;
    stats.sampled_tex_elem_bytes = stats.tex_elem_bytes;
    stats.sampled_tex_miss_bytes = texture_miss_bytes(
        spec, st.axis_n * esize, stats.tex_elem_bytes, grid);
  }
  return sim::estimate_launch(spec, c, stats).total_ms;
}

double coarse_step_ms_memo(const sim::GpuSpec& spec, const CoarseRankStep& st,
                           const PlanDesc& d, Memo& memo) {
  const TuneConfig& cfg = d.tune;
  const auto& e = st.in_shape.extent;
  const std::uint64_t key = fnv1a(
      {1, e[0], e[1], e[2], e[3], e[4],
       static_cast<std::uint64_t>(st.rank1), st.axis_n, cfg.grid_for(spec),
       cfg.threads_per_block,
       static_cast<std::uint64_t>(st.rank1 ? cfg.coarse_twiddles
                                           : TwiddleSource::Registers),
       static_cast<std::uint64_t>(d.precision)});
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;
  const double ms = coarse_step_ms(spec, st, d);
  memo.emplace(key, ms);
  return ms;
}

// ---------------------------------------------------------------------------
// Fine (step-5) kernel model
// ---------------------------------------------------------------------------

/// One fine-grained cooperative step: the complex X kernel over `count`
/// nx-point lines, or (`real`) the fused real kernel of direction `dir`
/// over nx-real lines — the same staged exchange over nx/2 points plus the
/// pack or unpack pass.
struct FineStep {
  bool real{};
  Direction dir{};
  std::size_t nx{};
  std::size_t count{};
};

/// What the fine step's closed-form replays read beyond its launch.
struct FineModel {
  std::size_t n{};          ///< staged transform length (fine_stages(n))
  std::size_t sh_stride{};  ///< exchange window stride, elements
  std::size_t io_elems{};   ///< complex elements loaded (== stored)
  double twiddle_fetches{};  ///< twiddle reads per transform
};

/// Shared-memory serialization cycles of one block executing one wave,
/// computed with run_fine_stages()' own exchange addresses and the real
/// conflict counter — this is where a mutated bank count changes the
/// landscape the tuner sees.
std::uint64_t fine_shmem_cycles_per_block(const FineModel& fm, unsigned tpb,
                                          unsigned pad, int banks,
                                          bool fp64) {
  const auto sts = fine_stages(fm.n);
  const std::size_t tpt = fine_threads_per_transform(fm.n);
  const std::uint32_t words = fp64 ? 2 : 1;
  std::uint64_t cycles = 0;
  std::vector<sim::ShmemLaneAccess> lanes;
  const unsigned halfwarps = (tpb + 15) / 16;
  for (std::size_t si = 1; si < sts.size(); ++si) {
    for (unsigned hw = 0; hw < halfwarps; ++hw) {
      // Four phases per exchange (store re, load re, store im, load im),
      // four slots per thread per phase.
      for (int phase = 0; phase < 4; ++phase) {
        const bool use_out = phase % 2 == 0;
        for (std::size_t s = 0; s < 4; ++s) {
          lanes.clear();
          for (unsigned ln = 0; ln < 16 && hw * 16 + ln < tpb; ++ln) {
            const unsigned tid = hw * 16 + ln;
            const std::size_t sub = tid / tpt;
            const std::size_t lane_tx = tid % tpt;
            const std::size_t p =
                use_out ? fine_out_pos(sts[si - 1], tpt, lane_tx, s)
                        : fine_in_pos(sts[si], tpt, lane_tx, s);
            lanes.push_back(sim::ShmemLaneAccess{
                static_cast<int>(ln),
                (sub * fm.sh_stride + shmem_pad(p, pad)) * words, words});
          }
          cycles += static_cast<std::uint64_t>(
                        sim::shmem_conflict_degree(lanes, banks)) *
                    lanes.size();
        }
      }
    }
  }
  return cycles;
}

/// Constant-cache serialization cycles of one block-wave: distinct twiddle
/// indices per half-warp butterfly slot serialize (32 bits per cycle).
std::uint64_t fine_const_cycles_per_block(const FineModel& fm,
                                          unsigned tpb) {
  const auto sts = fine_stages(fm.n);
  const std::size_t tpt = fine_threads_per_transform(fm.n);
  std::uint64_t cycles = 0;
  std::vector<std::uint64_t> idxs;
  const unsigned halfwarps = (tpb + 15) / 16;
  for (const FineStage& st : sts) {
    const std::size_t bpt = 4 / st.radix;
    for (unsigned hw = 0; hw < halfwarps; ++hw) {
      for (std::size_t b = 0; b < bpt; ++b) {
        for (std::size_t r = 1; r < st.radix; ++r) {
          idxs.clear();
          for (unsigned ln = 0; ln < 16 && hw * 16 + ln < tpb; ++ln) {
            const std::size_t u = (hw * 16 + ln) % tpt + b * tpt;
            idxs.push_back(fine_twiddle_step(st, u) * r);
          }
          cycles += sim::const_slot_cycles(idxs);
        }
      }
    }
  }
  return cycles;
}

/// Score a fine step: the kernel's own launch, priced with closed-form
/// replays. Global traffic is contiguous per line (the sim measures it
/// fully coalesced), so the memory side uses the ideal-stream bandwidth
/// path; shared/constant/texture serialization enters as exact launch
/// totals.
double fine_step_ms(const sim::GpuSpec& spec, const FineStep& fs,
                    const PlanDesc& d) {
  const TuneConfig& cfg = d.tune;
  const bool fp64 = d.precision == Precision::F64;
  const std::size_t esize = fp64 ? 16 : 8;
  const unsigned pad = cfg.shmem_pad_words;
  sim::LaunchConfig c;
  FineModel fm;
  if (fs.real) {
    c = real_fine_config(
        RealFineParams::tuned(cfg, spec, fs.nx, fs.count, fs.dir), fp64);
    fm = {fs.nx / 2, real_fine_sh_stride(fs.nx, pad),
          (fs.nx / 2 + 1) * fs.count, real_fine_twiddle_fetches(fs.nx)};
  } else {
    c = fine_config(
        FineKernelParams::tuned(cfg, spec, fs.nx, fs.count, fs.dir), fp64);
    fm = {fs.nx, fine_min_sh_stride(fs.nx, pad), fs.nx * fs.count,
          fine_twiddle_fetches(fs.nx)};
  }
  const unsigned tpb = c.threads_per_block;
  const std::size_t tpt = fine_threads_per_transform(fm.n);
  if (tpb % tpt != 0) return kInfeasible;
  const std::size_t txs_pb = tpb / tpt;
  if (!launchable(spec, c)) return kInfeasible;

  sim::LaunchStats stats;
  stats.elem_bytes_loaded = fm.io_elems * esize;
  stats.elem_bytes_stored = fm.io_elems * esize;
  // No sampled streams: sampled_elem_bytes stays 0, so estimate_launch
  // takes the ideal-bandwidth path and applies the serialization totals
  // below unscaled (scale == 1).
  const double waves =
      static_cast<double>(fs.count) / static_cast<double>(txs_pb);
  stats.shmem_thread_cycles = static_cast<std::uint64_t>(
      static_cast<double>(fine_shmem_cycles_per_block(fm, tpb, pad,
                                                      spec.shmem_banks,
                                                      fp64)) *
      waves);
  if (cfg.fine_twiddles == TwiddleSource::Constant) {
    stats.const_thread_cycles = static_cast<std::uint64_t>(
        static_cast<double>(fine_const_cycles_per_block(fm, tpb)) * waves);
  } else if (cfg.fine_twiddles == TwiddleSource::Texture) {
    stats.tex_elem_bytes = static_cast<std::uint64_t>(
        static_cast<double>(fs.count) * fm.twiddle_fetches) * esize;
    stats.sampled_tex_elem_bytes = stats.tex_elem_bytes;
    // Both kinds read the full nx-point table's footprint.
    stats.sampled_tex_miss_bytes = texture_miss_bytes(
        spec, fs.nx * esize, stats.tex_elem_bytes, c.grid_blocks);
  }
  return sim::estimate_launch(spec, c, stats).total_ms;
}

double fine_step_ms_memo(const sim::GpuSpec& spec, const FineStep& fs,
                         const PlanDesc& d, Memo& memo) {
  const TuneConfig& cfg = d.tune;
  const std::uint64_t key = fnv1a(
      {2, static_cast<std::uint64_t>(fs.real),
       static_cast<std::uint64_t>(fs.dir), fs.nx, fs.count,
       cfg.grid_for(spec), cfg.threads_per_block, cfg.shmem_pad_words,
       static_cast<std::uint64_t>(cfg.fine_twiddles),
       static_cast<std::uint64_t>(d.precision)});
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;
  const double ms = fine_step_ms(spec, fs, d);
  memo.emplace(key, ms);
  return ms;
}

// ---------------------------------------------------------------------------
// Plan-level composition
// ---------------------------------------------------------------------------

/// Steps 1-4 over `pencils` (x-extent = row pitch), summed in step order;
/// infinite when the Y or Z axis cannot be split or a step cannot launch.
double coarse_ranks_ms(const sim::GpuSpec& spec, const PlanDesc& d,
                       Shape3 pencils, Memo& memo) {
  AxisSplit sy{};
  AxisSplit sz{};
  try {
    sy = split_axis(pencils.ny, d.tune.coarse_radix);
    sz = split_axis(pencils.nz, d.tune.coarse_radix);
  } catch (const std::exception&) {
    return kInfeasible;
  }
  double total = 0.0;
  for (const CoarseRankStep& st : coarse_rank_steps(pencils, sy, sz)) {
    total += coarse_step_ms_memo(spec, st, d, memo);
  }
  return total;
}

double bandwidth3d_ms(const sim::GpuSpec& spec, const PlanDesc& d,
                      Memo& memo) {
  const Shape3 shape = d.shape;
  double total = coarse_ranks_ms(spec, d, shape, memo);
  if (std::isinf(total)) return kInfeasible;
  total += fine_step_ms_memo(
      spec, FineStep{false, d.dir, shape.nx, shape.ny * shape.nz}, d, memo);
  return total;
}

double real3d_ms(const sim::GpuSpec& spec, const PlanDesc& d, Memo& memo) {
  const Shape3 shape = d.shape;
  const std::size_t m = shape.nx / 2;
  if (m < 16) return kInfeasible;
  double total =
      coarse_ranks_ms(spec, d, Shape3{m, shape.ny, shape.nz}, memo);
  if (std::isinf(total)) return kInfeasible;
  // The 1-wide Nyquist tail pencils re-run the four ranks at ~1/m of the
  // work; their cost is dominated by the four extra launch overheads.
  total += 4.0 * spec.launch_overhead_us * 1e-3;
  total += fine_step_ms_memo(
      spec, FineStep{true, d.dir, shape.nx, shape.ny * shape.nz}, d, memo);
  return total;
}

// ---------------------------------------------------------------------------
// Mixed-radix (arbitrary-size) plan model
// ---------------------------------------------------------------------------

/// One MixedAxisKernelT pass: the kernel's own launch plus sampled
/// half-warp streams replaying its thread-per-line gather/scatter over the
/// kernel's own line walk, so the coalescing model sees exactly how a
/// dense non-pow2 row pitch breaks G80's segment alignment on the Y/Z
/// passes — the signal behind the planner's pitch decision.
struct MixedAxisSample {
  sim::LaunchConfig c;
  sim::LaunchStats stats;
  bool feasible{};
};

MixedAxisSample mixed_axis_sample(const sim::GpuSpec& spec,
                                  const PlanDesc& d,
                                  const MixedAxisWalk& walk) {
  MixedAxisSample out;
  const bool fp64 = d.precision == Precision::F64;
  const std::size_t esize = fp64 ? 16 : 8;
  const unsigned grid = d.tune.grid_for(spec);
  const unsigned tpb = d.tune.threads_per_block;
  out.c = mixed_axis_config(walk, fp64, grid, tpb);
  if (!launchable(spec, out.c)) return out;  // feasible stays false

  const std::size_t n = walk.n;
  sim::LaunchStats& stats = out.stats;
  stats.elem_bytes_loaded = walk.lines * n * esize;
  stats.elem_bytes_stored = walk.lines * n * esize;

  const unsigned wpb = (tpb + 31) / 32;
  const std::size_t total_warps = static_cast<std::size_t>(grid) * wpb;
  const std::size_t sampled_warps = std::min<std::size_t>(total_warps, 64);
  stats.warp_streams.resize(sampled_warps);
  const auto all_threads = static_cast<std::size_t>(grid) * tpb;
  const std::size_t per_thread = (walk.slots + all_threads - 1) / all_threads;
  const std::size_t rounds = std::min<std::size_t>(per_thread, 4);
  // Sample a handful of in-line positions: with a dense non-pow2 pitch
  // the row start walks every residue mod 16, so the positions must too.
  const std::size_t n_pos = std::min<std::size_t>(n, 8);

  std::vector<sim::LaneAccess> lanes;
  for (std::size_t w = 0; w < sampled_warps; ++w) {
    auto& stream = stats.warp_streams[w];
    for (std::size_t r = 0; r < rounds; ++r) {
      for (unsigned half = 0; half < 2; ++half) {
        const std::size_t gid0 = w * 32 + half * 16;
        for (std::size_t pi = 0; pi < n_pos; ++pi) {
          const std::size_t p = pi * n / n_pos;
          lanes.clear();
          for (unsigned ln = 0; ln < 16; ++ln) {
            const std::size_t li = gid0 + ln + r * all_threads;
            if (li >= walk.slots) continue;
            const std::size_t base = walk.line_base(li);
            if (base == SIZE_MAX) continue;  // idle pad-slot lane
            const std::uint64_t addr = (base + p * walk.stride) * esize;
            lanes.push_back(sim::LaneAccess{
                static_cast<int>(ln), addr,
                static_cast<std::uint32_t>(esize)});
          }
          if (lanes.empty()) continue;
          // The kernel gathers the line then scatters it back in place:
          // the load and the store slot see the same addresses.
          for (int pass = 0; pass < 2; ++pass) {
            sim::account_global_slot(lanes, stream, stats);
          }
        }
      }
    }
  }
  out.feasible = true;
  return out;
}

double mixed_axis_ms(const sim::GpuSpec& spec, const PlanDesc& d,
                     const MixedAxisWalk& walk, Memo& memo) {
  const std::uint64_t key = fnv1a(
      {4, walk.shape.nx, walk.shape.ny, walk.shape.nz, walk.pitch,
       static_cast<std::uint64_t>(walk.axis), d.tune.grid_for(spec),
       d.tune.threads_per_block, static_cast<std::uint64_t>(d.precision)});
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;
  const MixedAxisSample s = mixed_axis_sample(spec, d, walk);
  const double ms =
      s.feasible ? sim::estimate_launch(spec, s.c, s.stats).total_ms
                 : kInfeasible;
  memo.emplace(key, ms);
  return ms;
}

double mixed3d_ms(const sim::GpuSpec& spec, const PlanDesc& d, Memo& memo) {
  double total = 0.0;
  for (const MixedAxis axis : {MixedAxis::X, MixedAxis::Y, MixedAxis::Z}) {
    const MixedAxisWalk walk(d.shape, d.row_pitch(), axis);
    if (walk.n <= 1) continue;  // the executor skips identity axes too
    const double ms = mixed_axis_ms(spec, d, walk, memo);
    if (!std::isfinite(ms)) return kInfeasible;
    total += ms;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Streamed (Z-decimated) plan models
// ---------------------------------------------------------------------------

double plan_ms(const sim::GpuSpec& spec, const PlanDesc& d, Memo& memo);

double outofcore_ms(const sim::GpuSpec& spec, const PlanDesc& d,
                    Memo& memo) {
  const std::size_t n = d.shape.nx;
  const std::size_t splits =
      d.tune.slab_depth != 0 ? d.tune.slab_depth : d.splits;
  if (!valid_decimation(n, splits)) return kInfeasible;
  // The slab plan the executor builds, priced through the same dispatch.
  const PlanDesc slab = slab_plan_desc(
      PlanDesc::dense3d(Shape3{n, n, n / splits}, d.dir), d.tune);
  const std::size_t slab_bytes = slab.shape.volume() * 8;
  // Device-resident working set of a streamed slab (data + workspace).
  if (4 * slab_bytes > spec.device_memory_bytes) return kInfeasible;
  const double slab_ms = plan_ms(spec, slab, memo);
  if (!std::isfinite(slab_ms)) return kInfeasible;
  // Per slab: upload, inter-slab twiddle sweep (one read+write of the slab
  // at stream bandwidth plus a launch), the five-step slab FFT, download.
  const double tw_ms =
      spec.launch_overhead_us * 1e-3 +
      2.0 * static_cast<double>(slab_bytes) /
          (spec.peak_bandwidth_gbs() * spec.dram.peak_efficiency) * 1e-6;
  const double pcie_ms =
      (sim::pcie_transfer_ns(spec.pcie, sim::TransferDir::HostToDevice,
                             slab_bytes) +
       sim::pcie_transfer_ns(spec.pcie, sim::TransferDir::DeviceToHost,
                             slab_bytes)) *
      1e-6;
  return static_cast<double>(splits) * (slab_ms + tw_ms + pcie_ms);
}

double sharded_ms(const sim::GpuSpec& spec, const PlanDesc& d, Memo& memo) {
  const std::size_t n = d.shape.nx;
  const std::size_t shards =
      d.tune.slab_depth != 0 ? d.tune.slab_depth : d.splits;
  // A depth override must keep the fleet mapping valid (each card's shard
  // count stays integral), so only multiples of the described shards are
  // searchable.
  if (d.tune.slab_depth != 0 && d.splits != 0 &&
      d.tune.slab_depth % d.splits != 0) {
    return kInfeasible;
  }
  if (!valid_decimation(n, shards)) return kInfeasible;
  const Shape3 slab{n, n, n / shards};
  const bool real = d.layout == Layout::RealHalfSpectrum;
  const double slab_ms = plan_ms(
      spec,
      slab_plan_desc(real ? PlanDesc::real3d(slab, d.dir)
                          : PlanDesc::dense3d(slab, d.dir),
                     d.tune),
      memo);
  if (!std::isfinite(slab_ms)) return kInfeasible;
  // Two compute phases around the all-to-all; the exchange stages the
  // whole (half-spectrum: half the) volume through host memory.
  const std::size_t vol_bytes = d.buffer_elements() * 8;
  const double exchange_ms =
      (sim::pcie_transfer_ns(spec.pcie, sim::TransferDir::DeviceToHost,
                             vol_bytes) +
       sim::pcie_transfer_ns(spec.pcie, sim::TransferDir::HostToDevice,
                             vol_bytes)) *
      1e-6;
  return 2.0 * slab_ms + exchange_ms;
}

/// Model time of `d` under its own tune (the candidate being scored).
double plan_ms(const sim::GpuSpec& spec, const PlanDesc& d, Memo& memo) {
  switch (d.kind) {
    case PlanKind::Bandwidth3D:
      return bandwidth3d_ms(spec, d, memo);
    case PlanKind::Mixed3D:
      return mixed3d_ms(spec, d, memo);
    case PlanKind::Real3D:
      return real3d_ms(spec, d, memo);
    case PlanKind::OutOfCore:
    case PlanKind::BatchSharded3D:
      // Per member the dealt schedule IS the single-card out-of-core one.
      return outofcore_ms(spec, d, memo);
    case PlanKind::Sharded3D:
      return sharded_ms(spec, d, memo);
    default:
      REPRO_FAIL(
          "the planner models Bandwidth3D, Mixed3D, Real3D, OutOfCore, "
          "Sharded3D and BatchSharded3D plans");
  }
}

/// `desc` with `cfg` as its tune: the candidate plan_ms scores.
PlanDesc with_tune(PlanDesc desc, const TuneConfig& cfg) {
  desc.tune = cfg;
  return desc;
}

}  // namespace

double model_plan_ms(const sim::GpuSpec& spec, const PlanDesc& desc,
                     const TuneConfig& cfg) {
  Memo memo;
  return plan_ms(spec, with_tune(desc, cfg), memo);
}

double mixed_pitch_amplification(const sim::GpuSpec& spec, Shape3 shape,
                                 PitchMode pitch) {
  PlanDesc d = PlanDesc::mixed3d(shape, Direction::Forward);
  d.tune.pitch = pitch;
  // The Y pass is the pitch-sensitive one: consecutive threads walk
  // consecutive X, so every half-warp slot starts where the row pitch
  // puts it. (The X pass gathers with a pitch-sized lane stride and never
  // coalesces; it would mask the layout signal.)
  const MixedAxisSample s = mixed_axis_sample(
      spec, d, MixedAxisWalk(shape, d.row_pitch(), MixedAxis::Y));
  REPRO_CHECK_MSG(s.feasible && s.stats.sampled_elem_bytes > 0,
                  "the amplification probe needs a launchable Y pass");
  return static_cast<double>(s.stats.sampled_txn_bytes) /
         static_cast<double>(s.stats.sampled_elem_bytes);
}

TuneResult tune_plan(const sim::GpuSpec& spec, const PlanDesc& desc) {
  Memo memo;
  TuneResult res;
  const TuneConfig def{};
  res.default_ms = plan_ms(spec, with_tune(desc, def), memo);
  res.best = def;
  res.model_ms = res.default_ms;
  res.evaluated = 1;

  const std::span<const std::size_t> slabs = slab_candidates(desc);
  const std::span<const PitchMode> pitches = pitch_candidates(desc);

  for (const TwiddleSource ctw : kCoarseTwiddles) {
    for (const TwiddleSource ftw : kFineTwiddles) {
      for (const unsigned tpb : kThreadsPerBlock) {
        for (const unsigned bps : kBlocksPerSm) {
          for (const unsigned radix : kCoarseRadix) {
            for (const unsigned pad : kShmemPadWords) {
              for (const std::size_t slab : slabs) {
                for (const PitchMode pitch : pitches) {
                  TuneConfig cfg;
                  cfg.coarse_twiddles = ctw;
                  cfg.fine_twiddles = ftw;
                  cfg.threads_per_block = tpb;
                  cfg.blocks_per_sm = bps;
                  cfg.coarse_radix = radix;
                  cfg.shmem_pad_words = pad;
                  cfg.slab_depth = slab;
                  cfg.pitch = pitch;
                  if (cfg == def) continue;  // scored first, above
                  const double ms = plan_ms(spec, with_tune(desc, cfg), memo);
                  ++res.evaluated;
                  // Strict-improvement margin: ties within the model's
                  // resolution keep the earlier candidate, so the paper's
                  // defaults survive equivalent alternatives.
                  if (ms < res.model_ms * (1.0 - kImprovementMargin)) {
                    res.best = cfg;
                    res.model_ms = ms;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return res;
}

// ---------------------------------------------------------------------------
// Wisdom serialization
// ---------------------------------------------------------------------------

std::uint64_t spec_fingerprint(const sim::GpuSpec& g) {
  const auto d = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return fnv1a({static_cast<std::uint64_t>(g.num_sms),
                static_cast<std::uint64_t>(g.sps_per_sm), d(g.sp_clock_ghz),
                static_cast<std::uint64_t>(g.registers_per_sm),
                g.shmem_per_sm, static_cast<std::uint64_t>(g.shmem_banks),
                static_cast<std::uint64_t>(g.max_threads_per_sm),
                static_cast<std::uint64_t>(g.max_blocks_per_sm),
                static_cast<std::uint64_t>(g.warp_size),
                g.device_memory_bytes, d(g.mem_clock_mhz),
                static_cast<std::uint64_t>(g.bus_width_bits),
                static_cast<std::uint64_t>(g.dram.channels),
                static_cast<std::uint64_t>(g.dram.banks_per_channel),
                g.dram.row_bytes, g.dram.interleave, d(g.dram.row_miss_ns),
                d(g.dram.row_cycle_ns), d(g.dram.lookahead_ns),
                d(g.dram.activate_channel_ns), g.dram.spread_threshold_bytes,
                d(g.dram.spread_penalty_ns), d(g.dram.spread_log_range),
                d(g.dram.peak_efficiency),
                static_cast<std::uint64_t>(g.pcie.gen), d(g.pcie.h2d_gbs),
                d(g.pcie.d2h_gbs), d(g.pcie.latency_us),
                static_cast<std::uint64_t>(g.dma_engines), d(g.fp64_ratio),
                static_cast<std::uint64_t>(g.threads_to_saturate_mem),
                d(g.launch_overhead_us), d(g.texture_cache_bytes),
                d(g.compute_efficiency)});
}

namespace {

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_kind(const std::string& s, PlanKind& out) {
  for (const PlanKind k :
       {PlanKind::Bandwidth3D, PlanKind::Conventional3D, PlanKind::Naive3D,
        PlanKind::Bandwidth2D, PlanKind::Batch1D, PlanKind::OutOfCore,
        PlanKind::Convolution, PlanKind::Sharded3D, PlanKind::Real3D,
        PlanKind::BatchSharded3D, PlanKind::Mixed3D}) {
    if (s == plan_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string wisdom_header(const sim::GpuSpec& spec) {
  std::string name = spec.name.empty() ? "unknown" : spec.name;
  std::replace(name.begin(), name.end(), ' ', '_');
  return "gpu " + name + " fp=" + hex64(spec_fingerprint(spec));
}

bool wisdom_header_matches(const std::string& line,
                           const sim::GpuSpec& spec) {
  const std::size_t at = line.find("fp=");
  if (at == std::string::npos) return false;
  return line.substr(at + 3) == hex64(spec_fingerprint(spec));
}

std::string wisdom_line(const PlanDesc& desc, const TuneConfig& tune) {
  std::string s = "plan kind=";
  s += plan_kind_name(desc.kind);
  s += " shape=" + std::to_string(desc.shape.nx) + "x" +
       std::to_string(desc.shape.ny) + "x" + std::to_string(desc.shape.nz);
  s += desc.dir == Direction::Forward ? " dir=fwd" : " dir=inv";
  s += " prec=";
  s += precision_name(desc.precision);
  s += desc.transpose == TransposeStrategy::Tiled ? " transpose=tiled"
                                                  : " transpose=naive";
  s += " splits=" + std::to_string(desc.splits);
  s += " layout=";
  s += layout_name(desc.layout);
  s += " | " + tune.to_string();
  return s;
}

bool parse_wisdom_line(const std::string& line, PlanDesc& desc,
                       TuneConfig& tune) {
  if (line.rfind("plan ", 0) != 0) return false;
  const std::size_t bar = line.find(" | ");
  if (bar == std::string::npos) return false;
  static constexpr std::string_view kKeys[] = {
      "kind", "shape", "dir", "prec", "transpose", "splits", "layout"};
  std::vector<std::string> v;
  TuneConfig t;
  if (!parse_fields(line.substr(5, bar - 5), kKeys, v) ||
      !parse_tune_config(line.substr(bar + 3), t)) {
    return false;
  }
  PlanDesc d;
  const std::string& shape = v[1];
  const std::size_t x1 = shape.find('x');
  const std::size_t x2 =
      x1 == std::string::npos ? std::string::npos : shape.find('x', x1 + 1);
  if (!parse_kind(v[0], d.kind) || x2 == std::string::npos ||
      !parse_decimal(shape.substr(0, x1), d.shape.nx) ||
      !parse_decimal(shape.substr(x1 + 1, x2 - x1 - 1), d.shape.ny) ||
      !parse_decimal(shape.substr(x2 + 1), d.shape.nz) ||
      !parse_decimal(v[5], d.splits)) {
    return false;
  }
  if (v[2] != "fwd" && v[2] != "inv") return false;
  d.dir = v[2] == "fwd" ? Direction::Forward : Direction::Inverse;
  if (v[3] != "f32" && v[3] != "f64") return false;
  d.precision = v[3] == "f32" ? Precision::F32 : Precision::F64;
  if (v[4] != "naive" && v[4] != "tiled") return false;
  d.transpose =
      v[4] == "naive" ? TransposeStrategy::Naive : TransposeStrategy::Tiled;
  if (v[6] == layout_name(Layout::Complex)) {
    d.layout = Layout::Complex;
  } else if (v[6] == layout_name(Layout::RealHalfSpectrum)) {
    d.layout = Layout::RealHalfSpectrum;
  } else {
    return false;
  }
  if (!searchable(d, t)) return false;
  desc = d;
  tune = t;
  return true;
}

Decomposition choose_decomposition(const sim::Topology& topo,
                                   const sim::GpuSpec& spec, std::size_t n,
                                   std::size_t shards, std::size_t devices,
                                   Direction dir) {
  const ShardLayout pencil =
      shard_layout(topo, n, shards, devices, Decomposition::Pencil);
  if (pencil.decomp != Decomposition::Pencil) return Decomposition::Slab;
  const ShardPhases p = probe_shard_phases(spec, n, shards, dir);
  const double slab_ms = topology_model_ms(p, spec, topo, n, shards, devices,
                                           Decomposition::Slab, dir);
  const double pencil_ms = topology_model_ms(
      p, spec, topo, n, shards, devices, Decomposition::Pencil, dir);
  return pencil_ms < slab_ms ? Decomposition::Pencil : Decomposition::Slab;
}

}  // namespace repro::gpufft
