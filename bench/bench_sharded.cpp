// Extension study: the Section 3.3 Z-decimation sharded across a fleet of
// simulated cards (sim::DeviceGroup + gpufft::ShardedFft3DPlan). Sweeps
// the device count for one 256^3 transform and reports the scaling
// honestly: each card keeps its own PCIe link, but the links share one
// host bridge (12.8 GB/s per direction), so past two cards the all-to-all
// exchange — host-staged, as the 2008 cards have no peer-to-peer — becomes
// the bound and efficiency falls. The "model" column is the closed-form
// pipeline model (sharded_model_ms) the scheduler is cross-checked
// against; "err" must stay within 5%.
#include "bench_util.h"
#include "gpufft/sharded.h"

int main(int argc, char** argv) {
  using namespace repro;
  bench::init(&argc, argv);

  const std::size_t n = bench::pick<std::size_t>(256, 32);
  const std::size_t shards = bench::pick<std::size_t>(8, 2);
  const std::vector<std::size_t> counts =
      bench::smoke() ? std::vector<std::size_t>{1, 2}
                     : std::vector<std::size_t>{1, 2, 4, 8};
  bench::banner("Multi-device sharded 3-D FFT (" + std::to_string(n) +
                "^3, " + std::to_string(shards) + " shards, shared PCIe-2.0 "
                "bridge)");

  std::vector<cxf> volume(n * n * n);

  auto sweep = [&](const sim::GpuSpec& spec,
                   const std::vector<std::size_t>& devices) {
    std::cout << spec.name << " (" << spec.dma_engines
              << " DMA engine(s) per card)\n";
    TextTable t;
    t.header({"devices", "makespan ms", "model ms", "err", "speedup",
              "efficiency", "exchange MB", "exch frac", "max busy ms",
              "in-flight MB"});
    double base_ms = 0.0;
    for (const std::size_t nd : devices) {
      sim::DeviceGroup group(nd, spec);
      gpufft::ShardedFft3DPlan plan(group, n, shards,
                                    gpufft::Direction::Forward);
      const auto timing = plan.execute(std::span<cxf>(volume));
      const auto phases = gpufft::probe_shard_phases(
          group.device(0).spec(), n, shards, gpufft::Direction::Forward);
      const double model = gpufft::sharded_model_ms(
          phases, group.device(0).spec(), n, shards, nd);
      const double err = 100.0 * (timing.makespan_ms / model - 1.0);
      if (nd == devices.front()) base_ms = timing.makespan_ms;
      const double speedup = base_ms / timing.makespan_ms;
      const double efficiency =
          speedup / (static_cast<double>(nd) /
                     static_cast<double>(devices.front()));
      t.row({std::to_string(nd), TextTable::fmt(timing.makespan_ms, 1),
             TextTable::fmt(model, 1), TextTable::fmt(err, 2) + "%",
             TextTable::fmt(speedup, 2) + "x",
             TextTable::fmt(100.0 * efficiency, 0) + "%",
             TextTable::fmt(timing.exchange_bytes() / 1048576.0, 0),
             TextTable::fmt(100.0 * timing.exchange_fraction(), 0) + "%",
             TextTable::fmt(timing.max_busy_ms(), 1),
             TextTable::fmt(group.peak_bytes_in_flight() / 1048576.0, 0)});
      bench::add_row({"sharded/" + spec.name + "/devices:" +
                          std::to_string(nd),
                      timing.makespan_ms,
                      {{"speedup", speedup},
                       {"model_err_pct", err},
                       {"exchange_frac", timing.exchange_fraction()}}});
    }
    t.print(std::cout);
    std::cout << "\n";
  };

  // The paper's cards: one copy engine each, serial per-card chains.
  sweep(sim::geforce_8800_gts(), counts);
  // A GT200-class fleet: two copy engines pipeline each card's chains, so
  // the same bridge supports better per-card overlap.
  if (!bench::smoke()) {
    sweep(sim::geforce_gtx_280(), {1, 2, 4});
  }

  // ---- Batched volumes: serial vs pipelined all-to-all overlap ----
  //
  // The pipelined schedule overlaps volume k's exchange with volume
  // k+1's phase-1 decimation. On 1-DMA cards the single copy engine's
  // FIFO makes this a wash (the next upload queues behind the previous
  // download); on 2-DMA GT200 cards it hides most of the exchange.
  auto batch_sweep = [&](const sim::GpuSpec& spec, std::size_t nd,
                         const std::vector<std::size_t>& batches) {
    sim::DeviceGroup group(nd, spec);
    gpufft::ShardedFft3DPlan plan(group, n, shards,
                                  gpufft::Direction::Forward);
    const auto phases = gpufft::probe_shard_phases(
        group.device(0).spec(), n, shards, gpufft::Direction::Forward);
    std::cout << spec.name << " x" << nd << " batched volumes ("
              << spec.dma_engines << " DMA engine(s) per card)\n";
    TextTable t;
    t.header({"batch", "serial ms", "pipelined ms", "gain", "model ms",
              "err", "vol/s", "exch occ", "comp occ"});
    for (const std::size_t b : batches) {
      std::vector<std::vector<cxf>> volumes(b,
                                            std::vector<cxf>(n * n * n));
      std::vector<std::span<cxf>> spans(volumes.begin(), volumes.end());
      const auto serial =
          plan.execute_batch(spans, gpufft::BatchMode::Serial);
      const auto piped =
          plan.execute_batch(spans, gpufft::BatchMode::Pipelined);
      const double gain = serial.makespan_ms / piped.makespan_ms;
      const double model = gpufft::sharded_batch_model_ms(
          phases, group.device(0).spec(), n, shards, nd, b);
      const double err = 100.0 * (piped.makespan_ms / model - 1.0);
      t.row({std::to_string(b), TextTable::fmt(serial.makespan_ms, 1),
             TextTable::fmt(piped.makespan_ms, 1),
             TextTable::fmt(gain, 2) + "x", TextTable::fmt(model, 1),
             TextTable::fmt(err, 2) + "%",
             TextTable::fmt(piped.volumes_per_sec(), 0),
             TextTable::fmt(100.0 * piped.exchange_occupancy(), 0) + "%",
             TextTable::fmt(100.0 * piped.compute_occupancy(), 0) + "%"});
      bench::add_row({"sharded_batch/" + spec.name + "/x" +
                          std::to_string(nd) + "/batch:" +
                          std::to_string(b),
                      piped.makespan_ms,
                      {{"pipeline_gain", gain},
                       {"volumes_per_sec", piped.volumes_per_sec()},
                       {"model_err_pct", err}}});
    }
    t.print(std::cout);
    std::cout << "\n";
  };

  if (bench::smoke()) {
    batch_sweep(sim::geforce_8800_gts(), 2, {1, 2});
    batch_sweep(sim::geforce_gtx_280(), 2, {1, 2, 4});
  } else {
    batch_sweep(sim::geforce_8800_gts(), 4, {1, 2, 4});
    batch_sweep(sim::geforce_gtx_280(), 4, {1, 2, 4});
  }

  std::cout
      << "Speedup is sublinear by construction and the table says why: the "
         "volume crosses the host bridge twice each way regardless of the "
         "device count (exchange MB is constant), per-card link rates cap "
         "at aggregate/N beyond two cards, and the phase boundary makes "
         "every card wait for the slowest phase-1 chain. Two cards nearly "
         "halve the makespan (each still has its full link); four are "
         "already bridge-bound. The closed-form model tracks the "
         "scheduler within the 5% acceptance band — exactly (<0.1%) on "
         "1-DMA cards, where the single copy engine serializes each "
         "chain. The batch table shows where pipelining pays: 1-DMA "
         "cards gain nothing (the copy engine FIFO queues the next "
         "volume's upload behind the previous download), while 2-DMA "
         "GT200 fleets overlap the exchange with the next volume's "
         "phase 1 for >=1.2x at batch 4.\n";
  return bench::run_benchmarks(argc, argv);
}
