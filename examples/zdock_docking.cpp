// Synthetic protein-protein docking (the paper's Section 4.4 application):
// a receptor and a ligand are generated procedurally, the receptor grid is
// made resident on the simulated GPU, and a rotation sweep of FFT
// correlations finds the best rigid pose — with only a tiny candidate list
// ever crossing the PCIe link per rotation (application confinement).
//
//   $ ./zdock_docking [grid_n] [n_rotations]    (defaults 64, 6)
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "apps/zdock/docking.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace repro;
  using namespace repro::apps::zdock;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 64;
  const std::size_t n_rot =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 6;
  const Shape3 shape = cube(n);

  std::cout << "FFT docking on a " << n << "^3 grid, " << n_rot
            << " rotations (simulated 8800 GTS)\n\n";

  const Molecule receptor = make_chain_molecule(60, n / 4.0, 11, 2.2);
  const Molecule ligand = make_chain_molecule(15, n / 8.0, 12, 2.2);

  sim::Device dev(sim::geforce_8800_gts());
  DockingEngine engine(dev, shape);
  engine.set_receptor(receptor);
  const auto result = engine.dock(ligand, rotation_sweep(n_rot));

  TextTable t;
  t.header({"rotation", "best translation", "score"});
  for (const auto& p : result.per_rotation) {
    // Streamed rather than concatenated: GCC 12 at -O3 reports a false
    // -Wrestrict on a chain of string temporaries.
    std::ostringstream pose;
    pose << '(' << p.tx << ',' << p.ty << ',' << p.tz << ')';
    t.row({std::to_string(p.rotation_index), pose.str(),
           TextTable::fmt(p.score, 1)});
  }
  t.print(std::cout);

  std::cout << "\nbest pose: rotation " << result.best.rotation_index
            << ", translation (" << result.best.tx << "," << result.best.ty
            << "," << result.best.tz << "), score "
            << TextTable::fmt(result.best.score, 1) << "\n";
  std::cout << "simulated device time: "
            << TextTable::fmt(result.device_ms, 1) << " ms\n";
  std::cout << "PCIe traffic: " << result.h2d_bytes / 1024 << " KiB up, "
            << result.d2h_bytes / 1024
            << " KiB down  (the confinement win: the "
            << shape.volume() * sizeof(cxf) * n_rot / 1024
            << " KiB of score volumes never leave the card)\n";
  return 0;
}
