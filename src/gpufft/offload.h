// Asynchronous-transfer offload pipeline (Section 4.4, last paragraph):
// "The latest devices support asynchronous transfers, which enable overlap
// between data transfer and computation on the device."
//
// For a stream of independent 3-D FFT offload jobs, this models the
// double-buffered pipeline FftPlanT::execute_batch_host runs: the DMA
// engine moves job i+1 up and job i-1 down while the SMs transform job i.
// G8x-class cards have a single copy engine, so uploads and downloads
// share it (the paper's cards); later parts gained a second engine, which
// the model also exposes.
//
// The model is that pipeline itself: schedule_offload issues one job's
// measured phases in issue_double_buffered's order (fft_plan.h) as timed
// ops on a throwaway device, and the sim's event-driven stream scheduler
// (sim/stream.h) resolves engine contention exactly as it does for the
// plan's real transfers and launches.
#pragma once

#include "gpufft/plan.h"
#include "gpufft/types.h"

namespace repro::gpufft {

/// One job's phase times plus the serial and pipelined totals for a batch.
struct OffloadTiming {
  double h2d_ms{};   ///< one job's upload
  double fft_ms{};   ///< one job's on-board transform
  double d2h_ms{};   ///< one job's download
  std::size_t jobs{};
  double sync_ms{};  ///< jobs * (h2d + fft + d2h), nothing overlapped
  double sched_1dma_ms{};       ///< pipelined makespan, one copy engine
  double sched_2dma_ms{};       ///< pipelined makespan, two copy engines
  double sched_rate_1dma_ms{};  ///< steady-state per-job period, one engine
  double sched_rate_2dma_ms{};  ///< steady-state per-job period, two engines
};

/// Replay `jobs` identical (h2d, fft, d2h) jobs through
/// issue_double_buffered, the order FftPlanT::execute_batch_host runs, on
/// two streams of a throwaway device with `dma_engines` copy engines, and
/// return the makespan in ms (0 for no jobs).
double schedule_offload(double h2d_ms, double fft_ms, double d2h_ms,
                        std::size_t jobs, int dma_engines);

/// Measure one 3-D FFT offload job's phases on `dev` (fresh plan), then
/// replay `jobs` of them through schedule_offload on one and on two copy
/// engines: the makespans, and the steady-state per-job periods
/// (T(2 jobs) - T(jobs)) / jobs, fill and drain cancelled.
OffloadTiming measure_offload(Device& dev, Shape3 shape, std::size_t jobs);

}  // namespace repro::gpufft
