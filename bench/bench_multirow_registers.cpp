// Section 3.1's design decision: one 16-point FFT per thread (51-52
// registers, 128 resident threads/SM) versus a direct 256-point multirow
// FFT per thread (~1024 registers, 8 threads/SM). The paper observes
// ">38 GB/s" effective bandwidth for the 16-point scheme versus "<10 GB/s"
// for the 256-point one — the register/occupancy cliff that dictates the
// whole five-step structure.
#include "bench_util.h"
#include "gpufft/copy_kernels.h"
#include "gpufft/rank_kernels.h"

int main(int argc, char** argv) {
  using namespace repro;
  bench::init(&argc, argv);
  bench::banner(
      "Section 3.1 — 16-point vs direct 256-point multirow FFT (GTX)");

  sim::Device dev(sim::geforce_8800_gtx());
  TextTable t;
  t.header({"kernel", "threads/SM", "eff GB/s", "paper"});

  {
    // 16-point multirow kernel over a 256^3-sized batch (pattern D read /
    // pattern A write — exactly step 1 of the plan).
    const Shape5 shape{{256, 16, 16, 16, 16}};
    auto in = dev.alloc<cxf>(shape.volume());
    auto outb = dev.alloc<cxf>(shape.volume());
    gpufft::RankKernelParams p;
    p.in_shape = shape;
    p.grid_blocks = gpufft::default_grid_blocks(dev.spec());
    gpufft::RankKernel k(in, outb, p, /*rank1=*/true, 256);
    const auto r = dev.launch(k);
    t.row({"16-point per thread",
           std::to_string(r.occupancy.active_threads),
           TextTable::fmt(r.effective_gbs), "> 38"});
    bench::add_row({"multirow/fft16_per_thread", r.total_ms,
                    {{"eff_GBps", r.effective_gbs},
                     {"threads_per_sm",
                      static_cast<double>(r.occupancy.active_threads)}}});
  }
  {
    // 256-point multirow: 1024 registers per thread, 8 threads/SM.
    const std::size_t rows = 65536;
    auto in = dev.alloc<cxf>(rows * 256);
    auto outb = dev.alloc<cxf>(rows * 256);
    gpufft::Multirow256Kernel k(in, outb, rows,
                                gpufft::Direction::Forward);
    const auto r = dev.launch(k);
    t.row({"256-point per thread",
           std::to_string(r.occupancy.active_threads),
           TextTable::fmt(r.effective_gbs), "< 10"});
    bench::add_row({"multirow/fft256_per_thread", r.total_ms,
                    {{"eff_GBps", r.effective_gbs},
                     {"threads_per_sm",
                      static_cast<double>(r.occupancy.active_threads)}}});
  }
  t.print(std::cout);
  return bench::run_benchmarks(argc, argv);
}
