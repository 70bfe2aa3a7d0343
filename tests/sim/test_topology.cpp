// Interconnect topologies: routing, bisection arithmetic, the group's
// per-link FIFOs, and DeviceGroup::d2d_async timing/functional behavior
// on top of them.
#include "sim/topology/topology.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "sim/device_group.h"
#include "sim/fault.h"
#include "sim/topology/pcie_tree.h"
#include "sim/topology/peer_mesh.h"
#include "sim/topology/torus2d.h"

namespace repro::sim {
namespace {

TEST(Topology, PcieTreeHasNoPeerPathsAndBridgeBisection) {
  PcieTreeTopology tree(8);
  EXPECT_EQ(tree.kind(), "pcie-tree");
  EXPECT_FALSE(tree.peer_capable());
  EXPECT_FALSE(tree.has_peer_path(0, 1));
  EXPECT_TRUE(tree.route(0, 1).empty());
  // All crossing bytes ride the one 12.8 GB/s bridge: min(agg)/2.
  EXPECT_DOUBLE_EQ(tree.bisection_gbs(), 6.4);
  // The PR 3 derate rule: aggregate/N beats a fast card.
  EXPECT_DOUBLE_EQ(tree.host_share_h2d_gbs(5.2), 12.8 / 8.0);
  EXPECT_DOUBLE_EQ(tree.host_share_h2d_gbs(1.0), 1.0);
}

TEST(Topology, PeerMeshRoutesAreSingleHop) {
  PeerMeshTopology mesh(4, /*link_gbs=*/16.0, /*link_latency_us=*/2.0);
  EXPECT_EQ(mesh.kind(), "peer-mesh");
  EXPECT_TRUE(mesh.peer_capable());
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      if (a == b) continue;
      const auto hops = mesh.route(a, b);
      ASSERT_EQ(hops.size(), 2u);
      EXPECT_EQ(hops.front(), a);
      EXPECT_EQ(hops.back(), b);
      EXPECT_DOUBLE_EQ(mesh.link_gbs(a, b), 16.0);
      EXPECT_DOUBLE_EQ(mesh.link_latency_ms(a, b), 2e-3);
    }
  }
  // One send port per card bounds the crossing rate: floor(N/2) * link.
  EXPECT_DOUBLE_EQ(mesh.bisection_gbs(), 2.0 * 16.0);
  EXPECT_DOUBLE_EQ(PeerMeshTopology(64).bisection_gbs(), 32.0 * 16.0);
  // Unconstrained host aggregate: every card keeps its own link.
  EXPECT_DOUBLE_EQ(mesh.host_share_h2d_gbs(5.2), 5.2);
}

TEST(Topology, TorusRoutesAreDimensionOrdered) {
  Torus2DTopology torus(4, 4);
  // X within the source row first, then Y within the dest column.
  EXPECT_EQ(torus.route(0, 5), (std::vector<std::size_t>{0, 1, 5}));
  // Wraparound takes the shorter direction: col 0 -> col 3 is one step
  // backward, not three forward.
  EXPECT_EQ(torus.route(0, 3), (std::vector<std::size_t>{0, 3}));
  // Ties go forward: col 0 -> col 2 is two steps either way.
  EXPECT_EQ(torus.route(0, 2), (std::vector<std::size_t>{0, 1, 2}));
  // Both dimensions: (0,0) -> (2,1): X to col 1, then Y rows 0->1->2.
  EXPECT_EQ(torus.route(0, 9), (std::vector<std::size_t>{0, 1, 5, 9}));
  // Determinism: the model replays the same wires the scheduler used.
  EXPECT_EQ(torus.route(0, 9), torus.route(0, 9));
  EXPECT_TRUE(torus.adjacent(0, 1));
  EXPECT_TRUE(torus.adjacent(0, 3));   // row wrap link
  EXPECT_TRUE(torus.adjacent(0, 12));  // column wrap link
  EXPECT_FALSE(torus.adjacent(0, 5));
}

TEST(Topology, TorusBisectionArithmetic) {
  // 4x4 at 12 GB/s: cutting either dimension severs 2 rings x 4 nodes.
  EXPECT_DOUBLE_EQ(Torus2DTopology(4, 4).bisection_gbs(), 2.0 * 4 * 12.0);
  // Size-2 dimensions have coincident wrap and direct links: one ring.
  EXPECT_DOUBLE_EQ(Torus2DTopology(2, 2).bisection_gbs(), 1.0 * 2 * 12.0);
  EXPECT_DOUBLE_EQ(Torus2DTopology(1, 2).bisection_gbs(), 12.0);
  // Rectangles cut the cheaper dimension: slicing the 8-ring severs
  // 2 rings x 2 rows, cheaper than slicing the 2-ring (1 ring x 8 cols).
  EXPECT_DOUBLE_EQ(Torus2DTopology(2, 8).bisection_gbs(), 2.0 * 2 * 12.0);
  // Degenerate single node: report the link rate, not zero.
  EXPECT_DOUBLE_EQ(Torus2DTopology(1, 1).bisection_gbs(), 12.0);
  // Square torus vs mesh: 2*sqrt(N) vs N/2 rings is the crossover the
  // planner sees — equal at N=16, mesh ahead beyond.
  EXPECT_LT(Torus2DTopology(8, 8, 16.0).bisection_gbs(),
            PeerMeshTopology(64, 16.0).bisection_gbs());
}

TEST(Topology, LinkFifoSerializesConcurrentLegs) {
  // The group owns its link time: one FIFO per directed link.
  DeviceGroup group(2, geforce_8800_gts(),
                    std::make_shared<PeerMeshTopology>(2));
  LinkClock& links = group.links();
  // Two legs ready at t=0 over the same directed wire queue back to back.
  const double s0 = links.reserve(0, 1, 0.0, 1.0);
  const double s1 = links.reserve(0, 1, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(s0, 0.0);
  EXPECT_DOUBLE_EQ(s1, 1.0);
  // Full duplex: the reverse direction is independent.
  EXPECT_DOUBLE_EQ(links.reserve(1, 0, 0.0, 1.0), 0.0);
  links.reset();
  EXPECT_DOUBLE_EQ(links.reserve(0, 1, 0.0, 1.0), 0.0);
}

TEST(Topology, GroupsSharingATopologyKeepTheirOwnLinkClocks) {
  // A topology is a description: two groups built over one instance must
  // not queue behind each other's legs.
  const auto mesh = std::make_shared<PeerMeshTopology>(2);
  DeviceGroup a(2, geforce_8800_gts(), mesh);
  DeviceGroup b(2, geforce_8800_gts(), mesh);
  const std::size_t count = (std::size_t{4} << 20) / sizeof(float);  // 4 MB
  const auto first_leg = [count](DeviceGroup& g) {
    auto src = g.device(0).alloc<float>(count);
    auto dst = g.device(1).alloc<float>(count);
    Stream s0(g.device(0));
    Stream s1(g.device(1));
    std::vector<Stream*> exch{&s0, &s1};
    return g.d2d_async(0, 1, src, 0, dst, 0, count, s0,
                       std::span<Stream* const>(exch))
        .front();
  };
  const PeerLeg leg_a = first_leg(a);
  EXPECT_DOUBLE_EQ(leg_a.start_ms, 0.0);
  EXPECT_GT(leg_a.dur_ms, 0.25);  // the leg really occupies A's link
  EXPECT_DOUBLE_EQ(first_leg(b).start_ms, 0.0);
}

TEST(Topology, MeshKeepsFullHostLinksPerCard) {
  const GpuSpec gts = geforce_8800_gts();
  DeviceGroup mesh(8, gts, std::make_shared<PeerMeshTopology>(8));
  for (std::size_t d = 0; d < 8; ++d) {
    EXPECT_DOUBLE_EQ(mesh.device(d).spec().pcie.h2d_gbs, gts.pcie.h2d_gbs);
  }
}

TEST(Topology, D2dAsyncMovesDataAndChargesWireTime) {
  DeviceGroup group(2, geforce_8800_gts(),
                    std::make_shared<PeerMeshTopology>(2, 16.0, 2.0));
  auto src = group.device(0).alloc<float>(1 << 16);
  auto dst = group.device(1).alloc<float>(1 << 16);
  std::vector<float> host(src.size());
  std::iota(host.begin(), host.end(), 1.0f);
  std::copy(host.begin(), host.end(), src.data());

  Stream s0(group.device(0));
  Stream s1(group.device(1));
  std::vector<Stream*> exch{&s0, &s1};
  const auto legs = group.d2d_async(0, 1, src, 0, dst, 0, src.size(), s0,
                                    std::span<Stream* const>(exch));
  ASSERT_EQ(legs.size(), 1u);
  EXPECT_EQ(legs[0].from, 0u);
  EXPECT_EQ(legs[0].to, 1u);
  const double bytes = static_cast<double>(src.size() * sizeof(float));
  EXPECT_NEAR(legs[0].dur_ms, 2e-3 + bytes / (16.0 * 1e6), 1e-12);
  // Functional payload arrives regardless of timing.
  EXPECT_TRUE(std::equal(host.begin(), host.end(), dst.data()));
  // Both endpoints' streams carry the leg.
  EXPECT_GE(s0.ready_ms(), legs[0].dur_ms - 1e-12);
  EXPECT_GE(s1.ready_ms(), legs[0].done_ms - 1e-12);
}

TEST(Topology, D2dAsyncStoreAndForwardOccupiesIntermediateHops) {
  // 1x4 ring: 0 -> 2 forwards through 1 (ties go forward).
  DeviceGroup group(4, geforce_8800_gts(),
                    std::make_shared<Torus2DTopology>(1, 4, 12.0, 1.5));
  auto src = group.device(0).alloc<float>(4096);
  auto dst = group.device(2).alloc<float>(4096);
  std::vector<float> host(src.size());
  std::iota(host.begin(), host.end(), 0.5f);
  std::copy(host.begin(), host.end(), src.data());

  std::vector<std::unique_ptr<Stream>> streams;
  std::vector<Stream*> exch;
  for (std::size_t d = 0; d < group.size(); ++d) {
    streams.push_back(std::make_unique<Stream>(group.device(d)));
    exch.push_back(streams.back().get());
  }
  const auto legs = group.d2d_async(0, 2, src, 0, dst, 0, src.size(),
                                    *streams[0],
                                    std::span<Stream* const>(exch));
  ASSERT_EQ(legs.size(), 2u);
  EXPECT_EQ(legs[0].from, 0u);
  EXPECT_EQ(legs[0].to, 1u);
  EXPECT_EQ(legs[1].from, 1u);
  EXPECT_EQ(legs[1].to, 2u);
  // Store and forward: hop 2 starts no earlier than hop 1 lands.
  EXPECT_GE(legs[1].start_ms, legs[0].start_ms + legs[0].dur_ms - 1e-12);
  // The forwarder's exchange stream carried both the receive and the
  // resend, so its tail covers the whole relay.
  EXPECT_GE(streams[1]->ready_ms(), legs[1].done_ms - 1e-12);
  EXPECT_TRUE(std::equal(host.begin(), host.end(), dst.data()));
}

TEST(Topology, D2dAsyncSelfCopyStaysLocal) {
  DeviceGroup group(2, geforce_8800_gts(),
                    std::make_shared<PeerMeshTopology>(2));
  auto src = group.device(0).alloc<float>(1024);
  auto dst = group.device(0).alloc<float>(1024);
  std::vector<float> host(src.size());
  std::iota(host.begin(), host.end(), 3.0f);
  std::copy(host.begin(), host.end(), src.data());
  Stream s0(group.device(0));
  std::vector<Stream*> exch{&s0, nullptr};
  const auto legs = group.d2d_async(0, 0, src, 0, dst, 0, src.size(), s0,
                                    std::span<Stream* const>(exch));
  ASSERT_EQ(legs.size(), 1u);
  EXPECT_EQ(legs[0].from, legs[0].to);
  EXPECT_NEAR(legs[0].dur_ms,
              local_copy_ms(group.device(0).spec(), 1024 * sizeof(float)),
              1e-12);
  EXPECT_TRUE(std::equal(host.begin(), host.end(), dst.data()));
}

TEST(Topology, D2dAsyncThrowsWhenARouteDeviceIsLost) {
  DeviceGroup group(4, geforce_8800_gts(),
                    std::make_unique<Torus2DTopology>(1, 4));
  // Lose the forwarder on the 0 -> 2 route (device 1).
  group.faults(1).arm(FaultKind::DeviceLost, 1);
  EXPECT_THROW((void)group.device(1).alloc<float>(16), DeviceLostError);
  EXPECT_TRUE(group.device(1).lost());

  auto src = group.device(0).alloc<float>(256);
  auto dst = group.device(2).alloc<float>(256);
  std::vector<std::unique_ptr<Stream>> streams;
  std::vector<Stream*> exch;
  for (std::size_t d = 0; d < group.size(); ++d) {
    if (group.device(d).lost()) {
      streams.push_back(nullptr);
      exch.push_back(nullptr);
      continue;
    }
    streams.push_back(std::make_unique<Stream>(group.device(d)));
    exch.push_back(streams.back().get());
  }
  EXPECT_THROW(group.d2d_async(0, 2, src, 0, dst, 0, src.size(), *streams[0],
                               std::span<Stream* const>(exch)),
               DeviceLostError);
}

TEST(Topology, GroupResetClocksClearsLinkFifos) {
  DeviceGroup group(2, geforce_8800_gts(),
                    std::make_shared<PeerMeshTopology>(2));
  EXPECT_DOUBLE_EQ(group.links().reserve(0, 1, 0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(group.links().reserve(0, 1, 0.0, 5.0), 5.0);
  group.reset_clocks();
  EXPECT_DOUBLE_EQ(group.links().reserve(0, 1, 0.0, 5.0), 0.0);
}

}  // namespace
}  // namespace repro::sim
