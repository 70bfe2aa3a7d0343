// Golden pins on the sharded planner's pricing: the slab-vs-pencil verdict
// of choose_decomposition, the deal-vs-shard verdict of the
// topology-aware choose_batch_strategy, and topology_model_ms values.
// The verdicts are what the plans and FftService act on, and the pinned
// timelines of the executor and service tests depend on which way each
// one falls, so a change to how the models are computed must leave every
// verdict unchanged. Model values are pinned at 1e-12 relative: tight
// enough to catch any change of arithmetic, loose enough for a replay
// that rounds through the scheduler's nanosecond clock. GTX 280
// host-staged values are deliberately absent: the closed form is 1-3%
// above the executor there, so a model that tracks the executor more
// closely is allowed to move them.
//
// On a mismatch the test prints the observed row as a C++ initializer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "gpufft/batch_sharded.h"
#include "gpufft/planner.h"
#include "gpufft/sharded.h"
#include "sim/device_group.h"
#include "sim/topology/pcie_tree.h"
#include "sim/topology/peer_mesh.h"
#include "sim/topology/torus2d.h"

namespace repro::gpufft {
namespace {

/// Phases probed once per (spec, n, S): probing is the slow part.
const ShardPhases& phases_for(const sim::GpuSpec& spec, std::size_t n,
                              std::size_t shards) {
  static std::map<std::tuple<std::string, double, double, std::size_t,
                             std::size_t>,
                  ShardPhases>
      cache;
  const auto key = std::make_tuple(spec.name, spec.pcie.h2d_gbs,
                                   spec.pcie.d2h_gbs, n, shards);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache
             .emplace(key, probe_shard_phases(spec, n, shards,
                                              Direction::Forward))
             .first;
  }
  return it->second;
}

/// "tree", "mesh" or "torus" over `devices` slots; the torus is the
/// squarest rows x cols cover with rows <= cols (bench_topology's rule).
std::shared_ptr<sim::Topology> fabric(const std::string& kind,
                                      std::size_t devices) {
  if (kind == "tree") return std::make_shared<sim::PcieTreeTopology>(devices);
  if (kind == "mesh") return std::make_shared<sim::PeerMeshTopology>(devices);
  std::size_t rows = 1;
  for (std::size_t r = 1; r * r <= devices; ++r) {
    if (devices % r == 0) rows = r;
  }
  return std::make_shared<sim::Torus2DTopology>(rows, devices / rows);
}

/// The member spec a group of `devices` `card`s on `topo` schedules with
/// (bridge-derated), as the plans and FftService pass it.
sim::GpuSpec member_spec(const sim::GpuSpec& card,
                         const std::shared_ptr<sim::Topology>& topo) {
  const sim::DeviceGroup group(topo->size(), card, topo);
  return group.device(0).spec();
}

TEST(PricingPins, DecompositionVerdicts) {
  // bench_topology's sweep: 8800 GTS, 64^3, 16 shards, N = 1..64. One
  // letter per N, 'S' slab and 'P' pencil.
  const std::vector<std::size_t> counts{1, 2, 4, 8, 16, 32, 64};
  struct Row {
    const char* kind;
    const char* verdicts;
  };
  const Row rows[] = {
      {"tree", "SSSSSSS"},
      {"mesh", "SSSPPPP"},
      {"torus", "SSSSSSS"},
  };
  for (const Row& row : rows) {
    std::string got;
    for (const std::size_t nd : counts) {
      auto topo = fabric(row.kind, nd);
      got += choose_decomposition(*topo, member_spec(sim::geforce_8800_gts(),
                                                     topo),
                                  64, 16, nd, Direction::Forward) ==
                     Decomposition::Pencil
                 ? 'P'
                 : 'S';
    }
    EXPECT_EQ(got, row.verdicts)
        << "observed: {\"" << row.kind << "\", \"" << got << "\"},";
  }
  // The closest slab/pencil call in tier-1: n = 32, S = 16 on a 4-card
  // mesh.
  const sim::PeerMeshTopology mesh4(4);
  EXPECT_EQ(choose_decomposition(mesh4, sim::geforce_8800_gts(), 32, 16, 4,
                                 Direction::Forward),
            Decomposition::Pencil);
}

TEST(PricingPins, BatchStrategyVerdicts) {
  // GTS fleets of 2 to 4 cards; one letter per batch size B = 1..8,
  // 'D' deal and 'S' shard.
  struct Row {
    const char* kind;
    std::size_t devices;
    std::size_t n, shards;
    const char* verdicts;
  };
  const Row rows[] = {
      {"tree", 2, 16, 4, "SDSDSDSD"},
      {"tree", 2, 32, 4, "SSSSSDSS"},
      {"tree", 2, 48, 4, "SDSDSDSS"},
      {"tree", 2, 64, 8, "SDSDSDSD"},
      {"tree", 3, 16, 4, "SSDDDDDD"},
      {"tree", 3, 32, 4, "SDDDDDDD"},
      {"tree", 3, 48, 4, "SDDDDDDD"},
      {"tree", 3, 64, 8, "SSDDDDDD"},
      {"tree", 4, 16, 4, "SSSSSSSS"},
      {"tree", 4, 32, 4, "SSSSSSSD"},
      {"tree", 4, 48, 4, "SSSDSSSD"},
      {"tree", 4, 64, 8, "SSSSSSSD"},
      {"mesh", 2, 16, 4, "SDSDSDSD"},
      {"mesh", 2, 32, 4, "SDSDSDSD"},
      {"mesh", 2, 48, 4, "SDSDSDSD"},
      {"mesh", 2, 64, 8, "SDSDSDSD"},
      {"mesh", 3, 16, 4, "SDDDDDDD"},
      {"mesh", 3, 32, 4, "SDDDDDDD"},
      {"mesh", 3, 48, 4, "SDDDDDDD"},
      {"mesh", 3, 64, 8, "SDDDDDDD"},
      {"mesh", 4, 16, 4, "SDDDDDDD"},
      {"mesh", 4, 32, 4, "SSDDDDDD"},
      {"mesh", 4, 48, 4, "SSDDDDDD"},
      {"mesh", 4, 64, 8, "SSDDDDDD"},
      {"torus", 4, 16, 4, "SDDDDDDD"},
      {"torus", 4, 32, 4, "SSDDDDDD"},
      {"torus", 4, 48, 4, "SSDDDDDD"},
      {"torus", 4, 64, 8, "SSDDDDDD"},
  };
  for (const Row& row : rows) {
    auto topo = fabric(row.kind, row.devices);
    const sim::GpuSpec spec = member_spec(sim::geforce_8800_gts(), topo);
    const ShardPhases& p = phases_for(spec, row.n, row.shards);
    std::string got;
    for (std::size_t batch = 1; batch <= 8; ++batch) {
      got += choose_batch_strategy(p, spec, *topo, Direction::Forward, row.n,
                                   row.shards, row.devices, batch)
                         .strategy == BatchStrategy::Deal
                 ? 'D'
                 : 'S';
    }
    EXPECT_EQ(got, row.verdicts)
        << "observed: {\"" << row.kind << "\", " << row.devices << ", "
        << row.n << ", " << row.shards << ", \"" << got << "\"},";
  }
}

TEST(PricingPins, TopologyModelValues) {
  struct Row {
    const char* card;  ///< "gts" or "gtx280"
    const char* kind;
    std::size_t devices;
    std::size_t n, shards;
    Decomposition decomp;
    double model_ms;
  };
  constexpr Decomposition kSlab = Decomposition::Slab;
  constexpr Decomposition kPencil = Decomposition::Pencil;
  const Row rows[] = {
      {"gts", "mesh", 2, 64, 8, kSlab, 3.6829320019523792},
      {"gts", "mesh", 4, 64, 16, kSlab, 3.6870718691123781},
      {"gts", "mesh", 4, 32, 16, kSlab, 1.9635830992125194},
      {"gts", "mesh", 4, 32, 16, kPencil, 1.9458001445687656},
      {"gts", "mesh", 8, 64, 16, kPencil, 3.6079995388222548},
      {"gts", "mesh", 16, 64, 16, kSlab, 3.6870718691123781},
      {"gts", "mesh", 16, 64, 16, kPencil, 3.5804381412498345},
      {"gts", "mesh", 64, 64, 16, kPencil, 3.6437802092841927},
      {"gts", "torus", 4, 64, 8, kSlab, 3.3189557000100693},
      {"gts", "torus", 8, 64, 16, kSlab, 3.8172798691123746},
      {"gts", "torus", 8, 64, 16, kPencil, 3.8537928721555854},
      {"gts", "torus", 16, 64, 16, kPencil, 4.0027261412498367},
      {"gts", "torus", 64, 64, 16, kSlab, 3.825741202445708},
      {"gts", "torus", 64, 64, 16, kPencil, 5.1284148759508286},
      {"gtx280", "mesh", 4, 64, 16, kSlab, 3.3828554827507102},
      {"gtx280", "mesh", 8, 64, 16, kPencil, 3.3176338788442199},
      {"gtx280", "torus", 8, 64, 16, kSlab, 3.4496034827507081},
      {"gtx280", "torus", 8, 64, 16, kPencil, 3.5290432121775512},
      {"gtx280", "mesh", 4, 32, 16, kPencil, 1.9800903763643449},
      {"gts", "tree", 1, 64, 16, kSlab, 7.1535436828693753},
      {"gts", "tree", 2, 64, 16, kSlab, 3.5767718414346876},
      {"gts", "tree", 4, 64, 16, kSlab, 2.0289244658150922},
      {"gts", "tree", 4, 64, 8, kSlab, 1.9347261949390777},
      {"gts", "tree", 2, 32, 4, kSlab, 1.3529340872494633},
      {"gts", "mesh", 1, 64, 16, kSlab, 7.1535436828693753},
      {"gts", "tree", 4, 64, 16, kPencil, 2.0289244658150922},
  };
  for (const Row& row : rows) {
    const sim::GpuSpec card = std::string(row.card) == "gts"
                                  ? sim::geforce_8800_gts()
                                  : sim::geforce_gtx_280();
    auto topo = fabric(row.kind, row.devices);
    const sim::GpuSpec spec = member_spec(card, topo);
    const double got =
        topology_model_ms(phases_for(spec, row.n, row.shards), spec, *topo,
                          row.n, row.shards, row.devices, row.decomp,
                          Direction::Forward);
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"%s\", \"%s\", %zu, %zu, %zu, %s, %.17g},", row.card,
                  row.kind, row.devices, row.n, row.shards,
                  row.decomp == kSlab ? "kSlab" : "kPencil", got);
    EXPECT_NEAR(got, row.model_ms, 1e-12 * row.model_ms)
        << "observed: " << line;
  }
}

}  // namespace
}  // namespace repro::gpufft
