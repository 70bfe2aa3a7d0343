// Plan descriptions: the value type that identifies a transform.
//
// A PlanDesc carries everything needed to (re)construct a plan — kind,
// shape, direction, precision, and the algorithm options that change the
// generated kernels — and nothing that is an execution resource. Two plans
// with equal descriptions are interchangeable, which is what lets the
// PlanRegistry hand out one shared instance and the ResourceCache share
// twiddle tables between them (cuFFT-style plan handles: the description
// is the key, the executor owns no irreplaceable state).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>

#include "common/hash.h"
#include "gpufft/tuning.h"
#include "gpufft/types.h"

namespace repro::gpufft {

/// Which transform algorithm a plan runs.
enum class PlanKind {
  Bandwidth3D,     ///< the paper's five-step kernel (plan.h)
  Conventional3D,  ///< six-step FFT+transpose baseline (conventional3d.h)
  Naive3D,         ///< CUFFT 1.1-class baseline (naive.h)
  Bandwidth2D,     ///< three-launch 2-D plan (plan2d.h)
  Batch1D,         ///< batched fine-grained 1-D lines (batch1d.h, Table 8)
  OutOfCore,       ///< host-resident streamed 3-D FFT (outofcore.h)
  Convolution,     ///< FFT convolution/correlation pipeline (convolution.h)
  Sharded3D,       ///< multi-device Z-decimated 3-D FFT (sharded.h)
  Real3D,          ///< r2c/c2r five-step plan, half-spectrum (real3d.h)
  BatchSharded3D,  ///< whole volumes dealt to group members (batch_sharded.h)
  Mixed3D,         ///< arbitrary-size mixed-radix/Bluestein plan (mixed3d.h)
};

inline const char* plan_kind_name(PlanKind k) {
  switch (k) {
    case PlanKind::Bandwidth3D: return "bandwidth3d";
    case PlanKind::Conventional3D: return "conventional3d";
    case PlanKind::Naive3D: return "naive3d";
    case PlanKind::Bandwidth2D: return "bandwidth2d";
    case PlanKind::Batch1D: return "batch1d";
    case PlanKind::OutOfCore: return "outofcore";
    case PlanKind::Sharded3D: return "sharded3d";
    case PlanKind::Real3D: return "real3d";
    case PlanKind::BatchSharded3D: return "batchsharded3d";
    case PlanKind::Mixed3D: return "mixed3d";
    default: return "convolution";
  }
}

/// True when `shape` fits the paper's five-step Bandwidth3D executor: every
/// extent a power of two, X in the fine kernel's [16, 512] window and Y/Z
/// in the coarse split's [4, 512] window. Anything else routes to Mixed3D.
inline bool five_step_supported(Shape3 s) {
  const auto coarse_ok = [](std::size_t n) {
    return is_pow2(n) && n >= 4 && n <= 512;
  };
  return is_pow2(s.nx) && s.nx >= 16 && s.nx <= 512 && coarse_ok(s.ny) &&
         coarse_ok(s.nz);
}

/// Element layout of the buffer a plan transforms. Layout is part of the
/// plan identity: a Sharded3D plan over a RealHalfSpectrum buffer is a
/// different executor (and moves half the bytes) than the same shape in
/// Complex layout.
enum class Layout {
  Complex,           ///< interleaved complex, shape.volume() elements
  RealHalfSpectrum,  ///< padded r2c rows: (nx/2+1)*ny*nz complex elements
};

inline const char* layout_name(Layout l) {
  return l == Layout::Complex ? "complex" : "half-spectrum";
}

/// Scalar precision of a plan (the paper runs float; double is its
/// Section 4.5 future work).
enum class Precision { F32, F64 };

inline const char* precision_name(Precision p) {
  return p == Precision::F32 ? "f32" : "f64";
}

/// The Precision of scalar type T.
template <typename T>
inline constexpr Precision precision_of =
    std::is_same_v<T, double> ? Precision::F64 : Precision::F32;

/// Transpose implementation selector for the six-step plan.
enum class TransposeStrategy { Naive, Tiled };

/// Immutable description of a transform. Hashable and equality-comparable
/// so it can key the plan registry and the twiddle/workspace caches.
struct PlanDesc {
  PlanKind kind{PlanKind::Bandwidth3D};
  /// 3-D extents. Bandwidth2D uses (nx, ny, 1); Batch1D uses
  /// (n, count, 1); OutOfCore uses cube(n).
  Shape3 shape{};
  Direction dir{Direction::Forward};
  Precision precision{Precision::F32};
  /// Tunable knobs (twiddle placement, grid, block size, radix, pad,
  /// slab depth, row pitch). Part of the identity: a tuned plan and a
  /// default-config plan of the same shape are different registry entries.
  TuneConfig tune{};
  TransposeStrategy transpose{TransposeStrategy::Naive};  ///< Conventional3D
  std::size_t splits{0};  ///< OutOfCore / Sharded3D decimation factor
  Layout layout{Layout::Complex};  ///< element layout (Real3D: half-spectrum)

  friend bool operator==(const PlanDesc&, const PlanDesc&) = default;

  /// True for the Z-decimated kinds (OutOfCore, Sharded3D,
  /// BatchSharded3D): `splits` is their decimation factor, their device
  /// working set is a slab pair, and the tuner searches their slab depth.
  [[nodiscard]] bool z_decimated() const {
    return kind == PlanKind::OutOfCore || kind == PlanKind::Sharded3D ||
           kind == PlanKind::BatchSharded3D;
  }

  [[nodiscard]] std::size_t hash() const {
    return static_cast<std::size_t>(fnv1a(
        {static_cast<std::uint64_t>(kind), shape.nx, shape.ny, shape.nz,
         static_cast<std::uint64_t>(dir),
         static_cast<std::uint64_t>(precision), tune.hash(),
         static_cast<std::uint64_t>(transpose), splits,
         static_cast<std::uint64_t>(layout)}));
  }

  /// Element pitch between consecutive X rows of the device buffer. Equal
  /// to nx except for Mixed3D plans whose tuner chose the padded layout.
  [[nodiscard]] std::size_t row_pitch() const {
    if (kind == PlanKind::Mixed3D && tune.pitch == PitchMode::Padded) {
      return padded_row_pitch(shape.nx);
    }
    return shape.nx;
  }

  /// Elements of the (complex) device buffer this plan transforms: the
  /// full (possibly row-padded) volume for Complex layout, the padded
  /// (nx/2+1)*ny*nz rows for RealHalfSpectrum. Shape3 here is always the
  /// *logical* real extent.
  [[nodiscard]] std::size_t buffer_elements() const {
    if (layout == Layout::RealHalfSpectrum) {
      return (shape.nx / 2 + 1) * shape.ny * shape.nz;
    }
    return row_pitch() * shape.ny * shape.nz;
  }

  [[nodiscard]] std::string to_string() const {
    std::string s = plan_kind_name(kind);
    s += ' ';
    s += std::to_string(shape.nx);
    s += 'x';
    s += std::to_string(shape.ny);
    s += 'x';
    s += std::to_string(shape.nz);
    s += dir == Direction::Forward ? " fwd " : " inv ";
    s += precision_name(precision);
    if (z_decimated()) {
      s += " splits=";
      s += std::to_string(splits);
    }
    if (layout == Layout::RealHalfSpectrum) {
      s += ' ';
      s += layout_name(layout);
    }
    if (tune != TuneConfig{}) {
      s += " [";
      s += tune.to_string();
      s += ']';
    }
    return s;
  }

  // ---- Factories for the supported transform kinds ----

  static PlanDesc bandwidth3d(Shape3 shape, Direction dir,
                              Precision prec = Precision::F32) {
    PlanDesc d;
    d.kind = PlanKind::Bandwidth3D;
    d.shape = shape;
    d.dir = dir;
    d.precision = prec;
    return d;
  }

  static PlanDesc conventional3d(
      Shape3 shape, Direction dir,
      TransposeStrategy transpose = TransposeStrategy::Naive) {
    PlanDesc d;
    d.kind = PlanKind::Conventional3D;
    d.shape = shape;
    d.dir = dir;
    d.transpose = transpose;
    return d;
  }

  static PlanDesc naive3d(Shape3 shape, Direction dir) {
    PlanDesc d;
    d.kind = PlanKind::Naive3D;
    d.shape = shape;
    d.dir = dir;
    return d;
  }

  /// Arbitrary-size 3-D transform: mixed-radix (2/3/4/5/7) line kernels
  /// with a Bluestein fallback per axis (mixed3d.h). The only kind whose
  /// row pitch is a tunable (TuneConfig::pitch).
  static PlanDesc mixed3d(Shape3 shape, Direction dir,
                          Precision prec = Precision::F32) {
    PlanDesc d;
    d.kind = PlanKind::Mixed3D;
    d.shape = shape;
    d.dir = dir;
    d.precision = prec;
    return d;
  }

  /// Size-based router for dense single-card 3-D transforms: the paper's
  /// five-step executor when the shape fits it, the mixed-radix/Bluestein
  /// executor otherwise. This is how the streamed/sharded plans pick their
  /// per-slab engine, so arbitrary sizes flow through every path.
  static PlanDesc dense3d(Shape3 shape, Direction dir,
                          Precision prec = Precision::F32) {
    return five_step_supported(shape) ? bandwidth3d(shape, dir, prec)
                                      : mixed3d(shape, dir, prec);
  }

  static PlanDesc bandwidth2d(std::size_t nx, std::size_t ny, Direction dir,
                              Precision prec = Precision::F32) {
    PlanDesc d;
    d.kind = PlanKind::Bandwidth2D;
    d.shape = Shape3{nx, ny, 1};
    d.dir = dir;
    d.precision = prec;
    return d;
  }

  static PlanDesc batch1d(std::size_t n, std::size_t count, Direction dir,
                          Precision prec = Precision::F32) {
    PlanDesc d;
    d.kind = PlanKind::Batch1D;
    d.shape = Shape3{n, count, 1};
    d.dir = dir;
    d.precision = prec;
    return d;
  }

  static PlanDesc out_of_core(std::size_t n, std::size_t splits,
                              Direction dir) {
    PlanDesc d;
    d.kind = PlanKind::OutOfCore;
    d.shape = cube(n);
    d.dir = dir;
    d.splits = splits;
    return d;
  }

  /// A Z-decimated transform sharded across a sim::DeviceGroup; `shards`
  /// is the decimation factor S (the out-of-core `splits` generalized to
  /// N cards). Only constructible through a group-attached PlanRegistry.
  static PlanDesc sharded3d(std::size_t n, std::size_t shards,
                            Direction dir) {
    PlanDesc d;
    d.kind = PlanKind::Sharded3D;
    d.shape = cube(n);
    d.dir = dir;
    d.splits = shards;
    return d;
  }

  /// Whole volumes dealt round-robin to the members of a sim::DeviceGroup
  /// — no inter-device exchange at all; each member runs the single-card
  /// out-of-core schedule with decimation `shards`, so results are
  /// bit-identical to sharded3d of the same (n, shards, dir). Only
  /// constructible through a group-attached PlanRegistry. The batch front
  /// door is BatchShardedFft3DPlan::execute_batch.
  static PlanDesc batch_sharded3d(std::size_t n, std::size_t shards,
                                  Direction dir) {
    PlanDesc d;
    d.kind = PlanKind::BatchSharded3D;
    d.shape = cube(n);
    d.dir = dir;
    d.splits = shards;
    return d;
  }

  /// Real-input (r2c) / real-output (c2r) five-step plan over a padded
  /// half-spectrum buffer. `shape` is the logical real extent; the device
  /// buffer holds (nx/2+1)*ny*nz complex elements (see real3d.h).
  static PlanDesc real3d(Shape3 shape, Direction dir,
                         Precision prec = Precision::F32) {
    PlanDesc d;
    d.kind = PlanKind::Real3D;
    d.shape = shape;
    d.dir = dir;
    d.precision = prec;
    d.layout = Layout::RealHalfSpectrum;
    return d;
  }

  /// Sharded r2c/c2r cube: same Z-decimated executor family as sharded3d
  /// but over half-spectrum slabs, so the all-to-all stages half the
  /// bytes. Layout is the discriminator within PlanKind::Sharded3D.
  static PlanDesc sharded_real3d(std::size_t n, std::size_t shards,
                                 Direction dir) {
    PlanDesc d;
    d.kind = PlanKind::Sharded3D;
    d.shape = cube(n);
    d.dir = dir;
    d.splits = shards;
    d.layout = Layout::RealHalfSpectrum;
    return d;
  }

  /// FFT correlation engine (convolution.h). Layout::RealHalfSpectrum
  /// selects the r2c/c2r pipeline over the split layout.
  static PlanDesc convolution(Shape3 shape, Layout layout = Layout::Complex) {
    PlanDesc d;
    d.kind = PlanKind::Convolution;
    d.shape = shape;
    d.dir = Direction::Forward;
    d.layout = layout;
    return d;
  }
};

struct PlanDescHash {
  std::size_t operator()(const PlanDesc& d) const { return d.hash(); }
};

}  // namespace repro::gpufft
