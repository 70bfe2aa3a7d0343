// Extension of Table 10 along the paper's own suggestion (Section 4.4):
// "the latest devices support asynchronous transfers, which enable overlap
// between data transfer and computation". For a stream of 16 independent
// 256^3 FFT offload jobs, compare the synchronous schedule the paper
// measured with the double-buffered pipeline execute_batch_host runs, on
// a single copy engine (as on the 8800 series) and on two (as on later
// parts). Each card's pipelined figures replay that plan's own issue order
// with one job's measured phases; the period columns are the steady-state
// per-job period, fill and drain cancelled.
#include "bench_util.h"
#include "gpufft/offload.h"

int main(int argc, char** argv) {
  using namespace repro;
  bench::init(&argc, argv);

  const Shape3 shape = cube(bench::pick<std::size_t>(256, 32));
  const std::size_t jobs = bench::pick<std::size_t>(16, 3);
  bench::banner("Section 4.4 extension — async transfer overlap (" +
                std::to_string(jobs) + " x " + std::to_string(shape.nx) +
                "^3 offload jobs)");

  TextTable t;
  t.header({"Model", "sync ms", "1 DMA ms", "1 DMA period ms", "2 DMA ms",
            "2 DMA period ms", "speedup (1 DMA)", "speedup (2 DMA)"});
  for (const auto& spec : sim::all_gpus()) {
    sim::Device dev(spec);
    const auto o = gpufft::measure_offload(dev, shape, jobs);
    t.row({spec.name, TextTable::fmt(o.sync_ms, 0),
           TextTable::fmt(o.sched_1dma_ms, 0),
           TextTable::fmt(o.sched_rate_1dma_ms, 1),
           TextTable::fmt(o.sched_2dma_ms, 0),
           TextTable::fmt(o.sched_rate_2dma_ms, 1),
           TextTable::fmt(o.sync_ms / o.sched_1dma_ms, 2) + "x",
           TextTable::fmt(o.sync_ms / o.sched_2dma_ms, 2) + "x"});
    bench::add_row({"overlap/" + spec.name + "/sync", o.sync_ms, {}});
    bench::add_row({"overlap/" + spec.name + "/sched_1dma", o.sched_1dma_ms,
                    {{"speedup", o.sync_ms / o.sched_1dma_ms},
                     {"period_ms", o.sched_rate_1dma_ms}}});
    bench::add_row({"overlap/" + spec.name + "/sched_2dma", o.sched_2dma_ms,
                    {{"speedup", o.sync_ms / o.sched_2dma_ms},
                     {"period_ms", o.sched_rate_2dma_ms}}});
  }
  t.print(std::cout);
  std::cout << "\nOne copy engine carries every job's upload and download, "
               "so its period is max(h2d + d2h, fft). On two engines each "
               "slot's stream still chains a job's upload, transform and "
               "download, so two slots give max(h2d, fft, d2h, (h2d + fft "
               "+ d2h) / 2). Overlap recovers part of the PCIe loss, but "
               "copies still bound the single-engine cards — the paper's "
               "conclusion that confinement (keeping the working set on "
               "the card) is the real fix stands.\n";
  return bench::run_benchmarks(argc, argv);
}
