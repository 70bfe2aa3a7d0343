// Iterative Stockham autosort FFT engine (mixed radix 4/2/3/5/7), with multirow
// batching in the style of the vector-machine FFTs the paper builds on
// (Swarztrauber'84, Van Loan'92): many independent transforms advance in
// lockstep so the innermost loop runs down a unit-stride "row" dimension.
//
// One routine covers every host use case: 1-D transforms, batched 1-D, and
// all three axes of the 2-D/3-D plans (each axis is a multirow transform
// with suitable strides).
#pragma once

#include <cstddef>
#include <span>

#include "common/complex.h"
#include "fft/factor.h"
#include "fft/twiddle.h"

namespace repro::fft {

/// Layout of a multirow transform: `nrows` independent length-`n` transforms.
/// Point p of row r lives at data[r*row_stride + p*point_stride].
struct MultirowLayout {
  std::size_t n{};             ///< transform length (any 7-smooth size)
  std::size_t point_stride{};  ///< element stride between successive points
  std::size_t nrows{1};        ///< number of independent rows
  std::size_t row_stride{1};   ///< element stride between rows
};

/// Out-of-place-capable Stockham transform over `layout`, ping-ponging
/// between `data` and `scratch` (both must cover the full index range of the
/// layout); the result is always written back into `data`.
/// `tw` must be a TwiddleTable of size layout.n in the desired direction.
template <typename T>
void stockham_multirow(cx<T>* data, cx<T>* scratch, const MultirowLayout& layout,
                       const TwiddleTable<T>& tw);

/// The same transform along a precomputed `stages` ==
/// radix_schedule(layout.n), for engines that run one length many times.
template <typename T>
void stockham_multirow(cx<T>* data, cx<T>* scratch, const MultirowLayout& layout,
                       const TwiddleTable<T>& tw,
                       std::span<const StageSpec> stages);

extern template void stockham_multirow<float>(cx<float>*, cx<float>*,
                                              const MultirowLayout&,
                                              const TwiddleTable<float>&);
extern template void stockham_multirow<double>(cx<double>*, cx<double>*,
                                               const MultirowLayout&,
                                               const TwiddleTable<double>&);
extern template void stockham_multirow<float>(cx<float>*, cx<float>*,
                                              const MultirowLayout&,
                                              const TwiddleTable<float>&,
                                              std::span<const StageSpec>);
extern template void stockham_multirow<double>(cx<double>*, cx<double>*,
                                               const MultirowLayout&,
                                               const TwiddleTable<double>&,
                                               std::span<const StageSpec>);

}  // namespace repro::fft
