#include "gpufft/offload.h"

#include "sim/stream.h"

namespace repro::gpufft {

double schedule_offload(double h2d_ms, double fft_ms, double d2h_ms,
                        std::size_t jobs, int dma_engines) {
  // Throwaway device: only the engine topology matters for a purely timed
  // replay, so the default spec with the requested copy-engine count does.
  sim::GpuSpec spec;
  spec.name = "offload-replay";
  spec.dma_engines = dma_engines;
  Device dev(spec);
  sim::Stream s0(dev);
  sim::Stream s1(dev);
  sim::Stream* streams[2] = {&s0, &s1};
  const auto op = [&](sim::Engine engine, double ms, const char* name) {
    return [&, engine, ms, name](std::size_t i) {
      dev.submit_timed(*streams[i % 2], engine, ms, name);
    };
  };
  issue_double_buffered(jobs, op(sim::Engine::DmaH2D, h2d_ms, "h2d"),
                        op(sim::Engine::Compute, fft_ms, "fft"),
                        op(sim::Engine::DmaD2H, d2h_ms, "d2h"));
  dev.sync_all();
  return dev.elapsed_ms();
}

OffloadTiming measure_offload(Device& dev, Shape3 shape, std::size_t jobs) {
  auto data = dev.alloc<cxf>(shape.volume());
  BandwidthFft3D plan(dev, shape, Direction::Forward);
  std::vector<cxf> host(shape.volume());

  // Measure one job's phases serially on the real device/plan.
  dev.reset_clock();
  dev.h2d(data, std::span<const cxf>(host));
  const double h2d = dev.elapsed_ms();
  plan.execute(data);
  const double fft_end = dev.elapsed_ms();
  dev.d2h(std::span<cxf>(host), data);
  const double total = dev.elapsed_ms();
  const double fft = fft_end - h2d;
  const double d2h = total - fft_end;

  OffloadTiming t;
  t.h2d_ms = h2d;
  t.fft_ms = fft;
  t.d2h_ms = d2h;
  t.jobs = jobs;
  t.sync_ms = static_cast<double>(jobs) * (h2d + fft + d2h);

  // Replay the job stream through the real scheduler for both engine
  // topologies. The replay is purely timed (submit_timed): the schedule
  // is the one live buffers with these phase times would get, without
  // running 3 * jobs transforms per topology.
  t.sched_1dma_ms = schedule_offload(h2d, fft, d2h, jobs, 1);
  t.sched_2dma_ms = schedule_offload(h2d, fft, d2h, jobs, 2);
  if (jobs > 0) {
    // Steady-state per-job period, fill/drain cancelled: (T(2n) - T(n))/n.
    const double n = static_cast<double>(jobs);
    t.sched_rate_1dma_ms =
        (schedule_offload(h2d, fft, d2h, 2 * jobs, 1) - t.sched_1dma_ms) / n;
    t.sched_rate_2dma_ms =
        (schedule_offload(h2d, fft, d2h, 2 * jobs, 2) - t.sched_2dma_ms) / n;
  }
  return t;
}

}  // namespace repro::gpufft
