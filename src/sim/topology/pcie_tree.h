// Shared-bridge PCIe tree: the default DeviceGroup interconnect.
#pragma once

#include "sim/topology/topology.h"

namespace repro::sim {

/// All cards hang off one host chipset; there are no peer links, so
/// every exchange stages through host memory and the bridge derates
/// each card to aggregate/N. DeviceGroup(specs) and DeviceGroup(count,
/// spec) build it with the 12.8 GB/s PCIe 2.0 default.
class PcieTreeTopology final : public Topology {
 public:
  explicit PcieTreeTopology(std::size_t size, double aggregate_h2d_gbs = 12.8,
                            double aggregate_d2h_gbs = 12.8)
      : Topology(size, aggregate_h2d_gbs, aggregate_d2h_gbs) {}

  [[nodiscard]] std::string kind() const override { return "pcie-tree"; }

  /// Any even cut puts half the cards on each side; all crossing bytes
  /// ride the one bridge, whose two directions the exchange uses
  /// symmetrically, so the cut sees the weaker direction shared by the
  /// two halves: min(aggregate_h2d, aggregate_d2h) / 2.
  [[nodiscard]] double bisection_gbs() const override {
    const double agg = aggregate_h2d_gbs() < aggregate_d2h_gbs()
                           ? aggregate_h2d_gbs()
                           : aggregate_d2h_gbs();
    return agg / 2.0;
  }
};

}  // namespace repro::sim
