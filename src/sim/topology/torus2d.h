// 2-D torus with dimension-ordered routing.
#pragma once

#include "sim/topology/topology.h"

namespace repro::sim {

/// rows x cols grid with wraparound links in both dimensions (device
/// ordinal i sits at row i / cols, column i % cols).  Multi-hop
/// transfers are dimension-ordered — move along the row (X) first,
/// then along the column (Y), each dimension taking the shorter wrap
/// direction (ties go forward) — so routes are deterministic and
/// deadlock-free, and forwarded bytes occupy every intermediate hop's
/// DMA engines (store-and-forward, see DeviceGroup::d2d_async).
class Torus2DTopology final : public Topology {
 public:
  Torus2DTopology(std::size_t rows, std::size_t cols, double link_gbs = 12.0,
                  double link_latency_us = 1.5,
                  double aggregate_h2d_gbs = kUnconstrainedGBs,
                  double aggregate_d2h_gbs = kUnconstrainedGBs)
      : Topology(rows * cols, aggregate_h2d_gbs, aggregate_d2h_gbs),
        rows_(rows),
        cols_(cols),
        link_gbs_(link_gbs),
        link_latency_ms_(link_latency_us * 1e-3) {
    REPRO_CHECK_MSG(rows_ > 0 && cols_ > 0, "torus dims must be positive");
    REPRO_CHECK_MSG(link_gbs_ > 0.0, "torus link rate must be positive");
  }

  [[nodiscard]] std::string kind() const override { return "torus2d"; }
  [[nodiscard]] bool peer_capable() const override { return size() > 1; }

  [[nodiscard]] bool has_peer_path(std::size_t a,
                                   std::size_t b) const override {
    return a != b && a < size() && b < size();
  }

  [[nodiscard]] std::vector<std::size_t> route(std::size_t a,
                                               std::size_t b) const override;

  [[nodiscard]] bool adjacent(std::size_t a, std::size_t b) const;

  [[nodiscard]] double link_gbs(std::size_t a, std::size_t b) const override {
    REPRO_CHECK_MSG(adjacent(a, b), "not a torus link");
    return link_gbs_;
  }
  [[nodiscard]] double link_latency_ms(std::size_t a,
                                       std::size_t b) const override {
    REPRO_CHECK_MSG(adjacent(a, b), "not a torus link");
    return link_latency_ms_;
  }

  /// Worst even cut: slicing a wrap dimension of size s severs
  /// (s == 2 ? 1 : 2) rings' worth of links per node in the other
  /// dimension (the wrap link coincides with the direct link at s == 2),
  /// so crossing capacity is min over cuttable dims of
  /// (s == 2 ? 1 : 2) * other_dim * link.  Grows ~2*sqrt(N)*link on a
  /// square torus, vs (N/2)*link on the mesh — that ratio is the
  /// mesh/torus crossover in bench_topology.
  [[nodiscard]] double bisection_gbs() const override;

 private:
  std::size_t rows_;
  std::size_t cols_;
  double link_gbs_;
  double link_latency_ms_;
};

}  // namespace repro::sim
