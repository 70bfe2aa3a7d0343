// Out-of-core 3-D FFT (Section 3.3): transform a volume larger than the
// card's memory by streaming decimated slabs over PCI-Express in two
// phases. By default runs 256^3 against a deliberately *small* simulated
// card to show the mechanism quickly; pass 512 for the paper's full-size
// experiment (needs ~2 GB of host RAM and a few minutes of simulation).
//
// With --devices N the same decimation is sharded across an N-card
// sim::DeviceGroup instead (gpufft::ShardedFft3DPlan): a 512^3 volume
// that is out-of-core on one 512 MB card distributes into per-card
// working sets that stay fully resident on a 4-card group, with the
// all-to-all exchange host-staged and costed through the PCIe model.
//
// With --faults the run doubles as a recovery demo: a window of transient
// PCIe failures and a corrupted transfer are injected (plus, on a group,
// the loss of the last card mid-run), and the staged-transfer retry /
// re-shard machinery repairs them — the verification at the end still
// passes, and the recovery counters say what it cost.
//
//   $ ./large_fft_outofcore [n] [--devices N] [--faults]
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/table.h"
#include "fft/plan.h"
#include "gpufft/outofcore.h"
#include "gpufft/sharded.h"
#include "sim/fault.h"

namespace {

void report_recovery(const repro::sim::DeviceHealth& c) {
  std::cout << "\nrecovery: " << c.transient_retries
            << " transient retries, " << c.corruption_restages
            << " corruption re-stages, " << c.device_lost_failovers
            << " device-lost failovers\n";
}

int verify(const std::vector<repro::cxf>& out,
           const std::vector<repro::cxf>& input, repro::Shape3 shape) {
  using namespace repro;
  // Verify against the host library (skipped at 512^3 — the host check
  // alone would need another 2 GB and minutes of CPU).
  if (shape.nx <= 256) {
    std::vector<cxf> ref = input;
    fft::Plan3D<float> host_plan(shape, fft::Direction::Forward);
    host_plan.execute(ref);
    const double err = rel_l2_error<float>(out, ref);
    std::cout << "\nrelative L2 error vs host FFT: " << err << "\n";
    return err < fft_error_bound<float>(shape.volume()) ? 0 : 1;
  }
  std::cout << "\n(512^3 verification skipped; see tests/gpufft/"
               "test_outofcore.cpp and test_sharded.cpp for checked "
               "sizes)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  std::size_t n = 256;
  std::size_t devices = 1;
  bool faults = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      devices = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      faults = true;
    } else {
      n = std::strtoull(argv[i], nullptr, 10);
    }
  }
  const Shape3 shape = cube(n);
  const std::size_t splits = 8;

  auto data = random_complex<float>(shape.volume(), 512);
  const auto input = data;

  if (devices <= 1) {
    sim::GpuSpec spec = sim::geforce_8800_gts();
    if (n < 512) {
      // Shrink the card so even a modest volume is genuinely out-of-core.
      spec.device_memory_bytes = shape.volume() * sizeof(cxf);
      std::cout << "(card memory shrunk to "
                << spec.device_memory_bytes / (1 << 20)
                << " MB so the " << n << "^3 volume cannot fit in-core)\n";
    }
    sim::Device dev(spec);
    std::cout << "out-of-core " << n << "^3 FFT on " << spec.name << " ("
              << dev.memory_capacity() / (1 << 20)
              << " MB device memory)\n\n";

    gpufft::OutOfCoreFft3D plan(dev, n, splits, gpufft::Direction::Forward);
    if (faults) {
      std::cout << "(injecting 2 transient PCIe failures and 1 corrupted "
                   "transfer)\n\n";
      dev.faults().arm(sim::FaultKind::TransferTransient, 3, 2);
      dev.faults().arm(sim::FaultKind::TransferCorrupt, 9);
    }
    const auto timing = plan.execute(std::span<cxf>(data));

    TextTable t;
    t.header({"phase", "sim ms"});
    t.row({"phase 1: send slabs", TextTable::fmt(timing.h2d1_ms)});
    t.row({"phase 1: slab 3-D FFTs", TextTable::fmt(timing.fft1_ms)});
    t.row({"phase 1: twiddle multiply", TextTable::fmt(timing.twiddle_ms)});
    t.row({"phase 1: receive", TextTable::fmt(timing.d2h1_ms)});
    t.row({"phase 2: send plane sets", TextTable::fmt(timing.h2d2_ms)});
    t.row({"phase 2: 8-point Z FFTs", TextTable::fmt(timing.fft2_ms)});
    t.row({"phase 2: receive", TextTable::fmt(timing.d2h2_ms)});
    t.row({"total", TextTable::fmt(timing.total_ms())});
    t.print(std::cout);
    if (faults) report_recovery(dev.health());
    return verify(data, input, shape);
  }

  // ---- Sharded across a device group (full-size 512 MB cards) ----
  const sim::GpuSpec spec = sim::geforce_8800_gts();
  sim::DeviceGroup group(devices, spec);
  const std::size_t volume_mb = shape.volume() * sizeof(cxf) / (1 << 20);
  std::cout << "sharded " << n << "^3 FFT (" << volume_mb << " MB) on "
            << devices << " x " << spec.name << " ("
            << spec.device_memory_bytes / (1 << 20)
            << " MB each, shared PCIe-2.0 bridge)\n\n";

  gpufft::ShardedFft3DPlan plan(group, n, splits,
                                gpufft::Direction::Forward);
  if (faults) {
    std::cout << "(injecting 2 transient PCIe failures on card 0 and "
                 "killing card " << devices - 1 << " mid-run)\n\n";
    group.faults(0).arm(sim::FaultKind::TransferTransient, 3, 2);
    group.faults(devices - 1).arm(sim::FaultKind::DeviceLost, 20);
  }
  const auto timing = plan.execute(std::span<cxf>(data));

  TextTable t;
  t.header({"device", "busy ms", "exchange ms", "peak MB", "capacity MB"});
  for (std::size_t d = 0; d < group.size(); ++d) {
    const auto& s = timing.devices[d];
    t.row({std::to_string(d), TextTable::fmt(s.busy_ms(), 1),
           TextTable::fmt(s.exchange_ms(), 1),
           TextTable::fmt(
               group.device(d).peak_allocated_bytes() / 1048576.0, 0),
           std::to_string(spec.device_memory_bytes / (1 << 20))});
  }
  t.row({"fleet", TextTable::fmt(timing.makespan_ms, 1) + " (makespan)",
         TextTable::fmt(timing.barrier_ms, 1) + " (barrier)",
         TextTable::fmt(group.peak_bytes_in_flight() / 1048576.0, 0),
         "-"});
  t.print(std::cout);

  std::cout << "\nA " << n << "^3 volume needs " << volume_mb << " MB";
  if (shape.volume() * sizeof(cxf) > spec.device_memory_bytes) {
    std::cout << " — out-of-core on one "
              << spec.device_memory_bytes / (1 << 20) << " MB card —";
  } else {
    std::cout << ";";
  }
  std::cout << " every per-card working set above stays fully resident on "
               "its device; only the host-staged all-to-all crosses "
               "PCIe.\n";
  if (faults) {
    report_recovery(group.health_sum());
    std::cout << "surviving cards: " << group.alive_count() << " of "
              << devices << "\n";
  }
  return verify(data, input, shape);
}
