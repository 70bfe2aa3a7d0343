// Staged Stockham machinery shared by the fine-grained X-axis kernels.
//
// One n-point transform is computed cooperatively by n/4 threads, each
// holding four complex values in registers; stages are radix-4 (radix-2
// fixup for n = 2*4^k) ranks, and between stages the values cross threads
// through shared memory exchanging all real parts first, then all
// imaginary parts (Section 3.2's half-footprint exchange). The complex
// step-5 kernel (fine_kernel.*) and the fused real pack/unpack pass
// (real_kernels.*) differ only in how stage-0 inputs are produced and
// where the natural-order outputs go, so run_fine_stages() takes those as
// callbacks and keeps every butterfly, twiddle index, and shared-memory
// access pattern in one place. TwiddleReader is the one twiddle read of
// every rank, fine and real fine kernel.
#pragma once

#include <cmath>
#include <numbers>
#include <vector>

#include "fft/factor.h"
#include "gpufft/smallfft.h"
#include "gpufft/types.h"

namespace repro::gpufft {

/// W_len^idx through one TwiddleSource (Section 3.2's twiddle placement),
/// for a table of len = roots.size() entries: the kernel's register copy
/// `roots`, a constant-memory broadcast of it, a texture fetch from its
/// device copy, or a sincos of sign*2*pi*idx/len in double.
template <typename T>
class TwiddleReader {
 public:
  /// `device_table` is bound only for TwiddleSource::Texture.
  TwiddleReader(sim::BlockCtx& ctx, TwiddleSource src,
                const std::vector<cx<T>>& roots,
                const DeviceBuffer<cx<T>>* device_table, int sign)
      : src_(src),
        sign_(sign),
        roots_(roots),
        cst_(ctx.constant(roots)),
        tex_(src == TwiddleSource::Texture
                 ? ctx.texture(*device_table)
                 : sim::TextureView<cx<T>>(nullptr, nullptr, 0)) {}

  cx<T> operator()(const sim::ThreadCtx& t, std::size_t idx) const {
    switch (src_) {
      case TwiddleSource::Registers:
        return roots_[idx];
      case TwiddleSource::Constant:
        return cst_.load(t, idx);
      case TwiddleSource::Texture:
        return tex_.fetch(t, idx);
      case TwiddleSource::Recompute:
      default: {
        const double theta = sign_ * 2.0 * std::numbers::pi *
                             static_cast<double>(idx) /
                             static_cast<double>(roots_.size());
        return polar_unit<T>(theta);
      }
    }
  }

 private:
  TwiddleSource src_;
  int sign_;
  const std::vector<cx<T>>& roots_;
  sim::ConstView<cx<T>> cst_;
  sim::TextureView<cx<T>> tex_;
};

/// Padded shared-memory index: insert one word every `pad_words` so that
/// the power-of-two strides of the butterfly exchange spread across banks.
/// `pad_words` is a tuning knob (TuneConfig::shmem_pad_words); 0 disables
/// padding, 16 is the paper's choice for the 16-bank G80.
constexpr std::size_t shmem_pad(std::size_t i, std::size_t pad_words) {
  return pad_words == 0 ? i : i + i / pad_words;
}
constexpr std::size_t shmem_pad(std::size_t i) { return shmem_pad(i, 16); }

/// Addressing/loop cycles per thread per stage of one transform.
inline constexpr double kFineAddressingCyclesPerStage = 22.0;

/// Threads that cooperate on one staged n-point transform: each holds four
/// complex values in registers (the paper's fine-grained parallelism).
constexpr std::size_t fine_threads_per_transform(std::size_t n) {
  return n / 4;
}

/// One Stockham rank of the staged fine-grained FFT.
struct FineStage {
  std::size_t radix;
  std::size_t l;  ///< twiddle groups
  std::size_t m;  ///< butterfly span
};

/// Radix-4/2 stage decomposition of an n-point transform (n a power of
/// two, >= 16 so every thread owns exactly four values).
inline std::vector<FineStage> fine_stages(std::size_t n) {
  std::vector<FineStage> sts;
  std::size_t m = 1;
  while (m < n) {
    const std::size_t rem = n / m;
    const std::size_t radix = rem % 4 == 0 ? 4 : 2;
    sts.push_back(FineStage{radix, rem / radix, m});
    m *= radix;
  }
  return sts;
}

/// FP operations of one staged n-point transform as implemented.
inline double fine_flops_per_transform(std::size_t n) {
  double flops = 0.0;
  std::size_t m = 1;
  while (m < n) {
    const std::size_t radix = (n / m) % 4 == 0 ? 4 : 2;
    const double butterflies = static_cast<double>(n / radix);
    flops += butterflies *
             (radix == 4 ? fft::kFft4Flops + 3.0 * 6.0 : 4.0 + 6.0);
    m *= radix;
  }
  return flops;
}

/// Twiddle fetches of one staged n-point transform: every butterfly of a
/// radix-r stage multiplies r-1 values by a table (or recomputed) twiddle.
/// The planner and the kernels' cost configs share this count so a
/// recomputing candidate is charged the same work the executor models.
inline double fine_twiddle_fetches(std::size_t n) {
  double fetches = 0.0;
  std::size_t m = 1;
  while (m < n) {
    const std::size_t radix = (n / m) % 4 == 0 ? 4 : 2;
    fetches += static_cast<double>(n / radix) *
               static_cast<double>(radix - 1);
    m *= radix;
  }
  return fetches;
}

/// Minimum per-transform element stride of the exchange window in shared
/// memory (n scalars plus anti-bank-conflict padding).
constexpr std::size_t fine_min_sh_stride(std::size_t n,
                                         std::size_t pad_words = 16) {
  return shmem_pad(n - 1, pad_words) + 1;
}

// Exchange addressing of the staged transform. Thread `lane` of a group of
// `tpt` owns four values in slots 0..3; slot s holds output (or input) s %
// radix of work unit u = lane + (s / radix) * tpt. run_fine_stages moves
// the values through shared memory at these positions, and the planner
// replays the same positions against the bank-conflict counter.

/// Natural position of the value in `slot` after stage `prev` wrote it.
constexpr std::size_t fine_out_pos(const FineStage& prev, std::size_t tpt,
                                   std::size_t lane, std::size_t slot) {
  const std::size_t b = slot / prev.radix;
  const std::size_t r = slot % prev.radix;
  const std::size_t u = lane + b * tpt;
  const std::size_t j = u / prev.m;
  const std::size_t k = u % prev.m;
  return k + prev.m * (prev.radix * j + r);
}

/// Position stage `st` reads into `slot`.
constexpr std::size_t fine_in_pos(const FineStage& st, std::size_t tpt,
                                  std::size_t lane, std::size_t slot) {
  const std::size_t b = slot / st.radix;
  const std::size_t q = slot % st.radix;
  const std::size_t u = lane + b * tpt;
  const std::size_t j = u / st.m;
  const std::size_t k = u % st.m;
  return k + st.m * (j + st.l * q);
}

/// Twiddle step of work unit `u`'s butterfly in stage `st`: it multiplies
/// its output r (r >= 1) by W_n^(step * r).
constexpr std::size_t fine_twiddle_step(const FineStage& st, std::size_t u) {
  return u / st.m * st.m;
}

/// FP operations of one mixed-radix line transform of length n (butterfly
/// cost plus the R-1 twiddle multiplies per butterfly).
inline double mixed_line_flops(std::size_t n) {
  double flops = 0.0;
  for (const fft::StageSpec& st : fft::radix_schedule(n)) {
    const double butterflies = static_cast<double>(st.l * st.m);
    flops += butterflies * (fft_small_flops(st.radix) +
                            6.0 * static_cast<double>(st.radix - 1));
  }
  return flops;
}

/// Run every stage of one wave of transforms: the block's `txs_pb`
/// transform groups starting at group index `base` (groups past `count`
/// are idle), reading W_n^idx through `twiddle`. Callbacks:
///   load(t, tx, pos)      -> cx<T>   stage-0 input `pos` of transform tx
///   store(t, tx, pos, v)             natural-order output `pos`
/// `sh` is the exchange window (stride `sh_stride` >= fine_min_sh_stride(n)
/// elements per transform); `vals`/`tmp` are the emulated per-thread
/// registers (4 per thread), allocated once by the caller across waves.
/// The callbacks run inside barrier phases: `load` may read shared data
/// written in a phase before this call, and `store` may overwrite the
/// exchange window (the final phase no longer reads it).
template <typename T, typename Load, typename Store>
void run_fine_stages(sim::BlockCtx& ctx, const std::vector<FineStage>& sts,
                     std::size_t n, int sign, sim::SharedView<T>& sh,
                     std::size_t sh_stride, std::size_t pad_words,
                     std::size_t base, std::size_t count, cx<T>* vals,
                     T* tmp, const TwiddleReader<T>& twiddle, Load&& load,
                     Store&& store) {
  const std::size_t tpt = fine_threads_per_transform(n);
  const std::size_t n_stages = sts.size();

  // Butterfly of stage `st` for work unit u, reading from v[0..radix) and
  // writing the twiddled outputs back into v.
  auto butterfly = [&](sim::ThreadCtx& t, const FineStage& st,
                       std::size_t u, cx<T>* v) {
    const std::size_t step = fine_twiddle_step(st, u);
    if (st.radix == 4) {
      fft::fft4(v, sign);
      for (std::size_t r = 1; r < 4; ++r) {
        v[r] = twiddle(t, step * r) * v[r];
      }
    } else {
      const cx<T> d = v[0] - v[1];
      v[0] = v[0] + v[1];
      v[1] = twiddle(t, step) * d;
    }
  };

  // ---- stage 0: load through the caller (coalesced: lane-consecutive) ----
  {
    const FineStage& st = sts[0];
    const std::size_t bpt = 4 / st.radix;
    ctx.threads([&](sim::ThreadCtx& t) {
      const std::size_t sub = t.tid / tpt;
      const std::size_t lane = t.tid % tpt;
      const std::size_t tx = base + sub;
      if (tx >= count) return;
      for (std::size_t b = 0; b < bpt; ++b) {
        const std::size_t u = lane + b * tpt;
        const std::size_t j = u / st.m;
        const std::size_t k = u % st.m;
        cx<T> v[4];
        for (std::size_t q = 0; q < st.radix; ++q) {
          v[q] = load(t, tx, k + st.m * (j + st.l * q));
        }
        butterfly(t, st, u, v);
        for (std::size_t r = 0; r < st.radix; ++r) {
          vals[t.tid * 4 + b * st.radix + r] = v[r];
        }
      }
    });
  }

  // ---- inter-stage exchanges through shared memory ----
  for (std::size_t si = 1; si < n_stages; ++si) {
    const FineStage& prev = sts[si - 1];
    const FineStage& st = sts[si];
    const std::size_t bpt = 4 / st.radix;

    // Real parts: write all, then read all (paper's half-footprint
    // exchange), then the same for imaginary parts. Values leave from the
    // previous stage's output positions and arrive at this stage's input
    // positions.
    ctx.threads([&](sim::ThreadCtx& t) {
      const std::size_t sub = t.tid / tpt;
      const std::size_t lane = t.tid % tpt;
      if (base + sub >= count) return;
      const std::size_t shb = sub * sh_stride;
      for (std::size_t s = 0; s < 4; ++s) {
        sh.store(t,
                 shb + shmem_pad(fine_out_pos(prev, tpt, lane, s), pad_words),
                 vals[t.tid * 4 + s].re);
      }
    });
    ctx.threads([&](sim::ThreadCtx& t) {
      const std::size_t sub = t.tid / tpt;
      const std::size_t lane = t.tid % tpt;
      if (base + sub >= count) return;
      const std::size_t shb = sub * sh_stride;
      for (std::size_t s = 0; s < 4; ++s) {
        tmp[t.tid * 4 + s] = sh.load(
            t, shb + shmem_pad(fine_in_pos(st, tpt, lane, s), pad_words));
      }
    });
    ctx.threads([&](sim::ThreadCtx& t) {
      const std::size_t sub = t.tid / tpt;
      const std::size_t lane = t.tid % tpt;
      if (base + sub >= count) return;
      const std::size_t shb = sub * sh_stride;
      for (std::size_t s = 0; s < 4; ++s) {
        sh.store(t,
                 shb + shmem_pad(fine_out_pos(prev, tpt, lane, s), pad_words),
                 vals[t.tid * 4 + s].im);
      }
    });
    ctx.threads([&](sim::ThreadCtx& t) {
      const std::size_t sub = t.tid / tpt;
      const std::size_t lane = t.tid % tpt;
      if (base + sub >= count) return;
      const std::size_t shb = sub * sh_stride;
      // Assemble the next stage's inputs and run its butterflies.
      cx<T> next[4];
      for (std::size_t s = 0; s < 4; ++s) {
        next[s] = cx<T>{
            tmp[t.tid * 4 + s],
            sh.load(t, shb + shmem_pad(fine_in_pos(st, tpt, lane, s),
                                       pad_words))};
      }
      for (std::size_t b = 0; b < bpt; ++b) {
        const std::size_t u = lane + b * tpt;
        butterfly(t, st, u, next + b * st.radix);
      }
      for (std::size_t s = 0; s < 4; ++s) {
        vals[t.tid * 4 + s] = next[s];
      }
    });
  }

  // ---- final store through the caller (coalesced) ----
  {
    const FineStage& st = sts.back();
    ctx.threads([&](sim::ThreadCtx& t) {
      const std::size_t sub = t.tid / tpt;
      const std::size_t lane = t.tid % tpt;
      const std::size_t tx = base + sub;
      if (tx >= count) return;
      const std::size_t bpt = 4 / st.radix;
      for (std::size_t b = 0; b < bpt; ++b) {
        const std::size_t u = lane + b * tpt;
        const std::size_t j = u / st.m;
        const std::size_t k = u % st.m;
        for (std::size_t r = 0; r < st.radix; ++r) {
          store(t, tx, k + st.m * (st.radix * j + r),
                vals[t.tid * 4 + b * st.radix + r]);
        }
      }
    });
  }
}

}  // namespace repro::gpufft
