// Golden ledgers of FftService's salvage path, one scenario per route: the
// complex sharded batch (Shard), the split-real sharded batch, and the
// out-of-core batch dealt to the members (Deal). In each scenario a
// KernelCorrupt window on a member the route uses makes the fused batch
// raise a typed ResultVerificationError (Parseval with a single attempt,
// so nothing is recomputed), and the service re-runs every request alone
// from its pristine snapshot; the window outlasts the fused attempt, so
// one request fails again in salvage and its batchmate completes. Each
// case pins, exactly, every completion's id, done_ms and strategy and
// every failure's id, done_ms and error text.
// The simulated clock is deterministic, so a refactor of the salvage path
// must leave every value bit-identical.
//
// On a mismatch the test prints the observed ledger as a C++ initializer,
// so a deliberate re-baseline is a copy of that line.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/fft_service.h"
#include "sim/fault.h"
#include "sim/topology/peer_mesh.h"

namespace repro::serve {
namespace {

using gpufft::BatchStrategy;
using gpufft::Direction;
using gpufft::PlanDesc;

struct Done {
  std::uint64_t id{};
  double done_ms{};
  BatchStrategy strategy{};
};

struct Failed {
  std::uint64_t id{};
  double done_ms{};
  std::string error;
};

struct Ledger {
  std::vector<Done> completions;
  std::vector<Failed> failures;
};

/// The ledger as a C++ initializer (the re-baseline line).
std::string to_cpp(const Ledger& l) {
  std::string s = "{{";
  char buf[96];
  for (const Done& d : l.completions) {
    std::snprintf(buf, sizeof buf, "{%llu, %.17g, BatchStrategy::%s}, ",
                  static_cast<unsigned long long>(d.id), d.done_ms,
                  d.strategy == BatchStrategy::Deal ? "Deal" : "Shard");
    s += buf;
  }
  s += "}, {";
  for (const Failed& f : l.failures) {
    std::snprintf(buf, sizeof buf, "{%llu, %.17g, ",
                  static_cast<unsigned long long>(f.id), f.done_ms);
    s += buf;
    s += "\"" + f.error + "\"}, ";
  }
  return s + "}}";
}

/// Two same-description requests fused into one batch on a fresh 4-card
/// 8800 GTS mesh, with the first `window` kernel launches on `member`
/// corrupted.
Ledger run_salvaged(const PlanDesc& desc, std::size_t member,
                    std::uint64_t window) {
  sim::DeviceGroup group(4, sim::geforce_8800_gts(),
                         std::make_shared<sim::PeerMeshTopology>(4));
  ServiceConfig cfg;
  cfg.exec.verify = gpufft::VerifyPolicy::Parseval;
  cfg.exec.verify_attempts = 1;
  FftService service(group, cfg);
  group.faults(member).arm(sim::FaultKind::KernelCorrupt, 1, window);

  std::vector<std::vector<cxf>> volumes;
  for (std::uint64_t i = 0; i < 2; ++i) {
    volumes.push_back(random_complex<float>(desc.buffer_elements(), 70 + i));
  }
  for (std::uint64_t i = 0; i < volumes.size(); ++i) {
    FftRequest req;
    req.id = i;
    req.desc = desc;
    req.data = volumes[i];
    EXPECT_EQ(service.submit(req), Admission::Accepted);
  }
  const ServiceReport rep = service.run();
  Ledger l;
  for (const auto& c : rep.completions) {
    l.completions.push_back({c.id, c.done_ms, c.strategy});
  }
  for (const auto& f : rep.failures) {
    l.failures.push_back({f.id, f.done_ms, f.error});
  }
  return l;
}

void expect_ledger(const Ledger& got, const Ledger& want) {
  SCOPED_TRACE("observed ledger: " + to_cpp(got));
  // Exact comparisons throughout: the simulated clock is deterministic.
  ASSERT_EQ(got.completions.size(), want.completions.size());
  for (std::size_t i = 0; i < want.completions.size(); ++i) {
    EXPECT_EQ(got.completions[i].id, want.completions[i].id) << i;
    EXPECT_EQ(got.completions[i].done_ms, want.completions[i].done_ms) << i;
    EXPECT_EQ(got.completions[i].strategy, want.completions[i].strategy)
        << i;
  }
  ASSERT_EQ(got.failures.size(), want.failures.size());
  for (std::size_t i = 0; i < want.failures.size(); ++i) {
    EXPECT_EQ(got.failures[i].id, want.failures[i].id) << i;
    EXPECT_EQ(got.failures[i].done_ms, want.failures[i].done_ms) << i;
    EXPECT_EQ(got.failures[i].error, want.failures[i].error) << i;
  }
}

TEST(SalvageGolden, ComplexShardedBatch) {
  expect_ledger(
      run_salvaged(PlanDesc::sharded3d(32, 4, Direction::Forward), 1, 12),
      {{{1, 1.8174563646925606, BatchStrategy::Shard}},
       {{0, 0.82583504031429922,
         "plan[sharded3d 32x32x32 fwd f32 splits=4]: 8800 GTS (device 1): "
         "result failed pass-energy verification after 1 attempts — "
         "expected 7.13876e+08, observed inf; treating as silent data "
         "corruption"}}});
}

TEST(SalvageGolden, SplitRealShardedBatch) {
  expect_ledger(
      run_salvaged(PlanDesc::sharded_real3d(32, 4, Direction::Forward), 1,
                   12),
      {{{1, 3.2278827748154391, BatchStrategy::Shard}},
       {{0, 1.4417349678831164,
         "plan[sharded3d 32x32x32 fwd f32 splits=4 half-spectrum]: 8800 GTS "
         "(device 1): result failed pass-energy verification after 1 "
         "attempts — expected 3.83659e+08, observed 5.95446e+26; treating "
         "as silent data corruption"}}});
}

TEST(SalvageGolden, OutOfCoreDealtBatch) {
  expect_ledger(
      run_salvaged(PlanDesc::out_of_core(32, 4, Direction::Forward), 0, 48),
      {{{1, 8.1593246654917486, BatchStrategy::Deal}},
       {{0, 5.4529035837763162,
         "plan[batchsharded3d 32x32x32 fwd f32 splits=4]: plan[outofcore "
         "32x32x32 fwd f32 splits=4]: 8800 GTS (device 0): result failed "
         "parseval verification after 1 attempts — expected 7.17507e+08, "
         "observed -nan; treating as silent data corruption"}}});
}

}  // namespace
}  // namespace repro::serve
