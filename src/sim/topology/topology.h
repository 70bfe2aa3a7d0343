// Pluggable interconnect topologies for DeviceGroup (DESIGN §13).
//
// A Topology describes how the cards of a group are wired together:
// how much of the host bridge each card sees (the PR 3 shared-bridge
// derate), whether any pair of cards has a direct peer path, the
// per-link rate/latency of that fabric, and a closed-form bisection
// bandwidth that the planner uses to pick a decomposition.
//
// A Topology is an immutable description, so one instance can back any
// number of groups and models. Functional data movement stays
// host-backed (DeviceBuffer memcpy). Link occupancy is timing state, not
// wiring: it lives in a LinkClock next to the engine clocks, and
// sim::time_transfer (device_group.h) turns a route from here into
// DMA-engine occupancy on the endpoint devices plus that link FIFO.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"

namespace repro::sim {

/// Sentinel bandwidth for "no shared-bridge constraint": large enough
/// that min(card_rate, aggregate/N) always picks the card's own rate,
/// small enough that derived arithmetic (ns conversions, divisions)
/// stays comfortably inside double range.
inline constexpr double kUnconstrainedGBs = 1e12;

class Topology {
 public:
  Topology(std::size_t size, double aggregate_h2d_gbs,
           double aggregate_d2h_gbs)
      : size_(size),
        aggregate_h2d_gbs_(aggregate_h2d_gbs),
        aggregate_d2h_gbs_(aggregate_d2h_gbs) {
    REPRO_CHECK_MSG(size_ > 0, "topology must span at least one device");
    REPRO_CHECK_MSG(aggregate_h2d_gbs_ > 0.0 && aggregate_d2h_gbs_ > 0.0,
                    "aggregate host bandwidth must be positive");
  }
  virtual ~Topology() = default;

  /// Short stable name ("pcie-tree", "peer-mesh", "torus2d") used in
  /// bench tables and service metrics.
  [[nodiscard]] virtual std::string kind() const = 0;

  /// Number of device slots this topology wires together.
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] double aggregate_h2d_gbs() const { return aggregate_h2d_gbs_; }
  [[nodiscard]] double aggregate_d2h_gbs() const { return aggregate_d2h_gbs_; }

  /// Host-bridge share for one card: the PR 3 rule, min(card rate,
  /// aggregate / N).  The PCIe tree keeps the historic 12.8 GB/s
  /// chipset aggregate; peer fabrics default to kUnconstrainedGBs so
  /// every card keeps its own host link (per-card root complexes).
  [[nodiscard]] double host_share_h2d_gbs(double card_gbs) const {
    const double share = aggregate_h2d_gbs_ / static_cast<double>(size_);
    return card_gbs < share ? card_gbs : share;
  }
  [[nodiscard]] double host_share_d2h_gbs(double card_gbs) const {
    const double share = aggregate_d2h_gbs_ / static_cast<double>(size_);
    return card_gbs < share ? card_gbs : share;
  }

  /// True when this fabric has any device-to-device paths at all.
  /// Sharded plans use this as the cheap gate before routing.
  [[nodiscard]] virtual bool peer_capable() const { return false; }

  /// True when `a` can reach `b` over the fabric (possibly multi-hop).
  [[nodiscard]] virtual bool has_peer_path(std::size_t a,
                                           std::size_t b) const {
    (void)a;
    (void)b;
    return false;
  }

  /// Full hop list {a, v1, ..., b} for a fabric transfer, or empty when
  /// the only path is host staging.  Deterministic (dimension-ordered
  /// on the torus) so replayed models see the same wires.
  [[nodiscard]] virtual std::vector<std::size_t> route(std::size_t a,
                                                       std::size_t b) const {
    (void)a;
    (void)b;
    return {};
  }

  /// Rate / latency of the direct link a->b.  Only valid for adjacent
  /// pairs (consecutive hops of a route); checks otherwise.
  [[nodiscard]] virtual double link_gbs(std::size_t a, std::size_t b) const {
    (void)a;
    (void)b;
    REPRO_FAIL("topology has no peer links");
  }
  [[nodiscard]] virtual double link_latency_ms(std::size_t a,
                                               std::size_t b) const {
    (void)a;
    (void)b;
    REPRO_FAIL("topology has no peer links");
  }

  /// Wire time of one leg over the direct link a->b.
  [[nodiscard]] double leg_ms(std::size_t a, std::size_t b,
                              std::size_t bytes) const {
    return link_latency_ms(a, b) +
           static_cast<double>(bytes) / (link_gbs(a, b) * 1e6);
  }

  /// Closed-form bisection bandwidth (GB/s) across the worst even cut
  /// of the fabric.  The planner keys slab-vs-pencil on this; each
  /// concrete topology documents its derivation.
  [[nodiscard]] virtual double bisection_gbs() const = 0;

 private:
  std::size_t size_;
  double aggregate_h2d_gbs_;
  double aggregate_d2h_gbs_;
};

}  // namespace repro::sim
