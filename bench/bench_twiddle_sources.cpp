// Section 3.2's twiddle-placement options — registers, constant memory,
// texture memory, or recomputation — measured for both kernel classes.
// The paper picks registers for the coarse 16-point kernels (steps 1-4)
// and texture for the fine-grained step-5 kernel; this ablation shows the
// simulated cost ordering behind those choices.
#include "bench_util.h"
#include "gpufft/fine_kernel.h"
#include "gpufft/rank_kernels.h"

int main(int argc, char** argv) {
  using namespace repro;
  using gpufft::TwiddleSource;
  bench::init(&argc, argv);
  bench::banner("Section 3.2 ablation — twiddle factor placement (GTS)");

  const sim::GpuSpec spec = sim::geforce_8800_gts();
  struct Source {
    TwiddleSource src;
    const char* name;
  };
  const Source all_sources[] = {{TwiddleSource::Registers, "registers"},
                                {TwiddleSource::Constant, "constant"},
                                {TwiddleSource::Texture, "texture"},
                                {TwiddleSource::Recompute, "recompute"}};
  // Smoke: first two sources only.
  const std::size_t n_sources = bench::pick<std::size_t>(4, 2);

  TextTable t;
  t.header({"Twiddle source", "rank1 16-pt ms", "fine 256-pt ms",
            "paper's pick"});
  for (std::size_t si = 0; si < n_sources; ++si) {
    const Source& s = all_sources[si];
    sim::Device dev(spec);
    // Coarse kernel: one Z rank-1 pass of the 256^3 problem.
    const Shape5 shape{{256, 16, 16, 16, 16}};
    auto in = dev.alloc<cxf>(shape.volume());
    auto out = dev.alloc<cxf>(shape.volume());
    auto twd = dev.alloc<cxf>(256);
    const auto roots =
        gpufft::make_roots<float>(256, gpufft::Direction::Forward);
    dev.h2d(twd, std::span<const cxf>(roots));

    gpufft::RankKernelParams p;
    p.in_shape = shape;
    p.twiddles = s.src;
    p.grid_blocks = gpufft::default_grid_blocks(spec);
    gpufft::RankKernel rank(in, out, p, /*rank1=*/true, 256, &twd);
    const auto r_rank = dev.launch(rank);

    gpufft::FineKernelParams fp;
    fp.n = 256;
    fp.count = 65536;
    fp.twiddles = s.src;
    fp.grid_blocks = gpufft::default_grid_blocks(spec);
    gpufft::FineFftKernel fine(in, in, fp, &twd);
    const auto r_fine = dev.launch(fine);

    std::string pick;
    if (s.src == TwiddleSource::Registers) pick = "steps 1-4";
    if (s.src == TwiddleSource::Texture) pick = "step 5";
    t.row({s.name, TextTable::fmt(r_rank.total_ms, 2),
           TextTable::fmt(r_fine.total_ms, 2), pick});
    bench::add_row({std::string("twiddle/rank1/") + s.name, r_rank.total_ms,
                    {}});
    bench::add_row({std::string("twiddle/fine/") + s.name, r_fine.total_ms,
                    {}});
  }
  t.print(std::cout);
  return bench::run_benchmarks(argc, argv);
}
