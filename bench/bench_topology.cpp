// Interconnect study: the same sharded 3-D FFT scaled N = 1..64 over the
// three fabric models (DESIGN §13) — the 2008 shared-bridge PCIe tree,
// an NVLink-like all-to-all peer mesh, and a 2-D torus with
// dimension-ordered store-and-forward routing.
//
// The story the table tells:
//   * pcie-tree saturates first: every exchanged byte crosses the one
//     12.8 GB/s bridge twice, the bridge derates each card to 12.8/N,
//     and bisection is a constant 6.4 GB/s however many cards arrive.
//   * peer-mesh scales furthest: bisection grows as (N/2) * link, the
//     all-to-all rides single-hop d2d legs, and past the slab ceiling
//     (local_nz cards) the planner flips to the pencil decomposition.
//   * torus2d sits between: direct legs beat the bridge, but its
//     bisection only grows ~2*sqrt(N) * link and every extra sender
//     forwards through intermediate hops, so the planner keeps the
//     coarser slab layout — the curve flattens where the mesh's pencil
//     keeps climbing, exactly the bisection-ratio crossover.
// "model" is topology_model_ms (the layout's schedule replayed on
// throwaway devices through the simulator's scheduler, plus the bisection
// floor); "err" must stay within 5% — that model is what
// choose_decomposition trusts at plan time.
#include <memory>

#include "bench_util.h"
#include "gpufft/registry.h"
#include "gpufft/sharded.h"
#include "sim/fault.h"
#include "sim/topology/pcie_tree.h"
#include "sim/topology/peer_mesh.h"
#include "sim/topology/torus2d.h"

namespace {

/// rows x cols covering `devices` exactly, squarest-first.
std::shared_ptr<repro::sim::Torus2DTopology> torus_for(std::size_t devices) {
  std::size_t rows = 1;
  for (std::size_t r = 1; r * r <= devices; ++r) {
    if (devices % r == 0) rows = r;
  }
  return std::make_shared<repro::sim::Torus2DTopology>(rows, devices / rows);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  bench::init(&argc, argv);

  const std::size_t n = bench::pick<std::size_t>(64, 32);
  const std::size_t shards = bench::pick<std::size_t>(16, 8);
  const std::vector<std::size_t> counts =
      bench::smoke() ? std::vector<std::size_t>{1, 2, 4}
                     : std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64};
  bench::banner("Sharded 3-D FFT across interconnect topologies (" +
                std::to_string(n) + "^3, " + std::to_string(shards) +
                " shards)");

  std::vector<cxf> volume(n * n * n);
  const sim::GpuSpec card = sim::geforce_8800_gts();

  auto topo_for = [&](const std::string& kind,
                      std::size_t nd) -> std::shared_ptr<sim::Topology> {
    if (kind == "pcie-tree") return std::make_shared<sim::PcieTreeTopology>(nd);
    if (kind == "peer-mesh") return std::make_shared<sim::PeerMeshTopology>(nd);
    return torus_for(nd);
  };

  for (const std::string kind : {"pcie-tree", "peer-mesh", "torus2d"}) {
    TextTable t;
    t.header({"devices", "layout", "members", "makespan ms", "model ms",
              "err", "speedup", "bisection GB/s", "exchange MB"});
    double base_ms = 0.0;
    std::cout << kind << "\n";
    for (const std::size_t nd : counts) {
      auto topo = topo_for(kind, nd);
      sim::DeviceGroup group(nd, card, topo);
      gpufft::ShardedFft3DPlan plan(group, n, shards,
                                    gpufft::Direction::Forward);
      const auto timing = plan.execute(std::span<cxf>(volume));
      const gpufft::ShardLayout& lay = plan.last_layout();
      // Probe on the member's (bridge-derated) spec, as the plan models.
      const auto phases = gpufft::probe_shard_phases(
          group.device(0).spec(), n, shards, gpufft::Direction::Forward);
      const double model = gpufft::topology_model_ms(
          phases, group.device(0).spec(), *topo, n, shards, nd, lay.decomp,
          gpufft::Direction::Forward);
      const double err = 100.0 * (timing.makespan_ms / model - 1.0);
      if (nd == counts.front()) base_ms = timing.makespan_ms;
      const double speedup = base_ms / timing.makespan_ms;
      const std::string layout =
          std::string(lay.decomp == gpufft::Decomposition::Pencil
                          ? "pencil"
                          : "slab") +
          "/" +
          (lay.exchange == gpufft::Exchange::Peer ? "peer" : "host");
      t.row({std::to_string(nd), layout, std::to_string(lay.members),
             TextTable::fmt(timing.makespan_ms, 2),
             TextTable::fmt(model, 2), TextTable::fmt(err, 2) + "%",
             TextTable::fmt(speedup, 2) + "x",
             TextTable::fmt(topo->bisection_gbs(), 1),
             TextTable::fmt(timing.exchange_bytes() / 1048576.0, 2)});
      bench::add_row({"topology/" + kind + "/devices:" + std::to_string(nd),
                      timing.makespan_ms,
                      {{"speedup", speedup},
                       {"model_err_pct", err},
                       {"bisection_gbs", topo->bisection_gbs()}}});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  // ---- Fault injection over the peer mesh ----
  //
  // Lose a card mid-exchange on a 4-wide mesh: the plan must re-shard
  // onto a surviving pair that still routes peer-to-peer and finish the
  // volume — the direct-leg counterpart of the tree failover tests.
  {
    bench::banner("DeviceLost failover over peer-mesh exchange");
    const std::size_t fn = bench::pick<std::size_t>(64, 32);
    const std::size_t fshards = 4;
    std::vector<cxf> fvolume(fn * fn * fn);
    // Probe the victim's occurrence count on an identical fleet so the
    // fault lands mid-exchange, not past the end of the run.
    std::uint64_t ops = 0;
    {
      sim::DeviceGroup probe(4, card,
                             std::make_shared<sim::PeerMeshTopology>(4));
      gpufft::ShardedFft3DPlan pplan(probe, fn, fshards,
                                     gpufft::Direction::Forward);
      probe.faults(1).reset_counters();
      pplan.execute(std::span<cxf>(fvolume));
      ops = probe.faults(1).occurrences(sim::FaultKind::DeviceLost);
    }
    sim::DeviceGroup mesh(4, card, std::make_shared<sim::PeerMeshTopology>(4));
    gpufft::ShardedFft3DPlan plan(mesh, fn, fshards,
                                  gpufft::Direction::Forward);
    mesh.faults(1).arm(sim::FaultKind::DeviceLost, ops / 2);
    const auto timing = plan.execute(std::span<cxf>(fvolume));
    const std::uint64_t failovers =
        mesh.device(1).health().device_lost_failovers;
    TextTable t;
    t.header({"event", "value"});
    t.row({"failovers", std::to_string(failovers)});
    t.row({"survivor members", std::to_string(plan.last_layout().members)});
    t.row({"exchange after loss",
           plan.last_layout().exchange == gpufft::Exchange::Peer
               ? "peer (direct legs kept)"
               : "host-staged"});
    t.row({"makespan ms", TextTable::fmt(timing.makespan_ms, 2)});
    t.print(std::cout);
    std::cout << "\n";
    bench::add_row({"topology/failover/peer-mesh", timing.makespan_ms,
                    {{"failovers", static_cast<double>(failovers)}}});
  }

  std::cout
      << "Where each fabric saturates: the tree's makespan stops improving "
         "at the slab ceiling and then REGRESSES — the bridge derate "
         "(12.8/N per card) keeps slowing every link while bisection "
         "stays a constant 6.4 GB/s. The mesh scales furthest: past "
         "local_nz cards the planner flips slab->pencil (bisection "
         "(N/2)*link makes the finer exchange cheap) and the curve then "
         "rides the phase-1 residue chain, the floor set by `shards`. "
         "The torus pays store-and-forward hops and only ~2*sqrt(N)*link "
         "of bisection, so the same planner keeps the coarser slab "
         "layout and its curve flattens below the mesh — the "
         "slab-vs-pencil call and the crossover both come straight out "
         "of topology_model_ms, which the err column pins to the "
         "scheduler.\n";
  return bench::run_benchmarks(argc, argv);
}
