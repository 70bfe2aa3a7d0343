// Golden timelines of every Z-decimated schedule: the sharded complex and
// split-real plans on host-staged, peer-slab and pencil layouts, the
// pipelined batch, the single-card out-of-core reference, the host batch
// entry points, the dealt batch and the lost-card reruns. Each case pins,
// exactly, the makespan, the phase fence, the seven Table 12 bucket sums
// (or batch rows), the exchanged bytes, every device's PCIe counters and
// launch count, an FNV-1a hash over every device's launch history (kernel
// name and duration), and an FNV-1a hash over the output volumes; the
// failover cases add every device's device_lost_failovers ledger, the
// dealt batches every volume's member and completion time. The simulated
// clock is deterministic, so a refactor of the executors must leave every
// value bit-identical.
//
// On a mismatch the test prints the observed pin as a C++ initializer, so
// a deliberate re-baseline is a copy of that line.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpufft/batch_sharded.h"
#include "gpufft/outofcore.h"
#include "gpufft/real3d.h"
#include "gpufft/sharded.h"
#include "sim/fault.h"
#include "sim/topology/peer_mesh.h"
#include "sim/topology/torus2d.h"

namespace repro::gpufft {
namespace {

struct DevicePin {
  std::uint64_t h2d_bytes{}, d2h_bytes{};
  double h2d_ms{}, d2h_ms{};
  std::size_t launches{};
};

struct Pin {
  double makespan_ms{};
  double barrier_ms{};
  /// h2d1, fft1, twiddle, d2h1, h2d2, fft2, d2h2 summed over devices.
  std::array<double, 7> buckets{};
  std::uint64_t exchange_bytes{};
  std::vector<DevicePin> devices;
  std::uint64_t history_hash{};
  std::uint64_t output_hash{};
};

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t len) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over the bytes of every volume, in order.
std::uint64_t output_hash(std::span<const std::span<cxf>> volumes) {
  std::uint64_t h = kFnvBasis;
  for (const auto& v : volumes) h = fnv1a(h, v.data(), v.size_bytes());
  return h;
}

/// Device counters and the launch-history hash of `devs`, in order.
void observe_devices(Pin& p, const std::vector<Device*>& devs) {
  std::uint64_t h = kFnvBasis;
  for (Device* d : devs) {
    p.devices.push_back({d->h2d_bytes(), d->d2h_bytes(), d->h2d_ms(),
                         d->d2h_ms(), d->history().size()});
    for (const auto& l : d->history()) {
      h = fnv1a(h, l.name.data(), l.name.size());
      h = fnv1a(h, &l.total_ms, sizeof l.total_ms);
    }
  }
  p.history_hash = h;
}

std::vector<Device*> members(sim::DeviceGroup& g) {
  std::vector<Device*> out;
  for (std::size_t i = 0; i < g.size(); ++i) out.push_back(&g.device(i));
  return out;
}

using Ledger = std::vector<std::uint64_t>;

/// The failover ledger: every member's device_lost_failovers, in ordinal
/// order.
Ledger failovers(sim::DeviceGroup& g) {
  Ledger out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    out.push_back(g.device(i).health().device_lost_failovers);
  }
  return out;
}

/// A host batch's rows into the bucket slots (one row per bucket).
void observe_rows(Pin& p, const std::vector<StepTiming>& rows) {
  ASSERT_EQ(rows.size(), p.buckets.size());
  for (std::size_t i = 0; i < rows.size(); ++i) p.buckets[i] = rows[i].ms;
}

/// Pin of a sharded run: bucket sums over the fleet plus group counters.
Pin observe(const ShardedTiming& t, double makespan_ms, sim::DeviceGroup& g) {
  Pin p;
  p.makespan_ms = makespan_ms;
  p.barrier_ms = t.barrier_ms;
  for (const auto& d : t.devices) {
    p.buckets[0] += d.h2d1_ms;
    p.buckets[1] += d.fft1_ms;
    p.buckets[2] += d.twiddle_ms;
    p.buckets[3] += d.d2h1_ms;
    p.buckets[4] += d.h2d2_ms;
    p.buckets[5] += d.fft2_ms;
    p.buckets[6] += d.d2h2_ms;
  }
  p.exchange_bytes = t.exchange_bytes();
  observe_devices(p, members(g));
  return p;
}

/// The pin as a C++ initializer (the re-baseline line).
std::string to_cpp(const Pin& p) {
  std::string s;
  auto put = [&s](const char* fmt, auto v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, fmt, v);
    s += buf;
  };
  put("{%.17g, ", p.makespan_ms);
  put("%.17g, {", p.barrier_ms);
  for (std::size_t i = 0; i < p.buckets.size(); ++i) {
    put(i + 1 < p.buckets.size() ? "%.17g, " : "%.17g}, ", p.buckets[i]);
  }
  put("%lluu, {", static_cast<unsigned long long>(p.exchange_bytes));
  for (std::size_t i = 0; i < p.devices.size(); ++i) {
    const DevicePin& d = p.devices[i];
    put(i == 0 ? "{%lluu, " : ", {%lluu, ",
        static_cast<unsigned long long>(d.h2d_bytes));
    put("%lluu, ", static_cast<unsigned long long>(d.d2h_bytes));
    put("%.17g, ", d.h2d_ms);
    put("%.17g, ", d.d2h_ms);
    put("%zuu}", d.launches);
  }
  put("}, %lluull, ", static_cast<unsigned long long>(p.history_hash));
  put("%lluull}", static_cast<unsigned long long>(p.output_hash));
  return s;
}

/// `v` as a C++ initializer at full precision.
std::string to_cpp(const std::vector<double>& v) {
  std::string s = "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, i == 0 ? "%.17g" : ", %.17g", v[i]);
    s += buf;
  }
  return s + "}";
}

void expect_pin(const Pin& got, const Pin& want) {
  SCOPED_TRACE("observed pin: " + to_cpp(got));
  // Exact comparisons throughout: the simulated clock is deterministic.
  EXPECT_EQ(got.makespan_ms, want.makespan_ms);
  EXPECT_EQ(got.barrier_ms, want.barrier_ms);
  for (std::size_t i = 0; i < want.buckets.size(); ++i) {
    EXPECT_EQ(got.buckets[i], want.buckets[i]) << "bucket " << i;
  }
  EXPECT_EQ(got.exchange_bytes, want.exchange_bytes);
  EXPECT_EQ(got.devices.size(), want.devices.size());
  for (std::size_t i = 0;
       i < std::min(got.devices.size(), want.devices.size()); ++i) {
    EXPECT_EQ(got.devices[i].h2d_bytes, want.devices[i].h2d_bytes) << i;
    EXPECT_EQ(got.devices[i].d2h_bytes, want.devices[i].d2h_bytes) << i;
    EXPECT_EQ(got.devices[i].h2d_ms, want.devices[i].h2d_ms) << i;
    EXPECT_EQ(got.devices[i].d2h_ms, want.devices[i].d2h_ms) << i;
    EXPECT_EQ(got.devices[i].launches, want.devices[i].launches) << i;
  }
  EXPECT_EQ(got.history_hash, want.history_hash);
  EXPECT_EQ(got.output_hash, want.output_hash);
}

/// A dealt batch's per-volume placement and completion offsets.
void expect_deal(const BatchDealTiming& got, const std::vector<int>& member,
                 const std::vector<double>& done_ms) {
  SCOPED_TRACE("observed volume_done_ms: " + to_cpp(got.volume_done_ms));
  EXPECT_EQ(got.volume_member, member);
  EXPECT_EQ(got.volume_done_ms, done_ms);
}

constexpr std::size_t kN = 32;

std::unique_ptr<sim::DeviceGroup> tree(std::size_t devices,
                                       const sim::GpuSpec& spec =
                                           sim::geforce_8800_gts()) {
  return std::make_unique<sim::DeviceGroup>(devices, spec);
}

std::unique_ptr<sim::DeviceGroup> mesh(std::size_t devices) {
  return std::make_unique<sim::DeviceGroup>(
      devices, sim::geforce_8800_gts(),
      std::make_shared<sim::PeerMeshTopology>(devices));
}

std::unique_ptr<sim::DeviceGroup> torus(std::size_t rows, std::size_t cols) {
  return std::make_unique<sim::DeviceGroup>(
      rows * cols, sim::geforce_8800_gts(),
      std::make_shared<sim::Torus2DTopology>(rows, cols));
}

std::vector<cxf> real_volume(std::uint64_t seed) {
  std::vector<float> reals(kN * kN * kN);
  SplitMix64 rng(seed);
  for (auto& x : reals) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return pack_real_volume<float>(reals, cube(kN));
}

Pin sharded_real(sim::DeviceGroup& g, Direction dir) {
  ShardedRealFft3DPlan plan(g, kN, 4, dir);
  auto data = real_volume(7);
  const ShardedTiming t = plan.execute(std::span<cxf>(data));
  Pin p = observe(t, t.makespan_ms, g);
  const std::span<cxf> out[] = {data};
  p.output_hash = output_hash(out);
  return p;
}

Pin sharded(sim::DeviceGroup& g, Direction dir, std::size_t shards = 4,
            const Decomposition* decomp = nullptr) {
  ShardedFft3DPlan plan(g, kN, shards, dir);
  if (decomp != nullptr) plan.set_decomposition(*decomp);
  auto data = random_complex<float>(kN * kN * kN, 11);
  const ShardedTiming t = plan.execute(std::span<cxf>(data));
  Pin p = observe(t, t.makespan_ms, g);
  const std::span<cxf> out[] = {data};
  p.output_hash = output_hash(out);
  return p;
}

Pin pipelined(sim::DeviceGroup& g) {
  ShardedFft3DPlan plan(g, kN, 4, Direction::Forward);
  std::vector<std::vector<cxf>> vols;
  for (std::uint64_t k = 0; k < 3; ++k) {
    vols.push_back(random_complex<float>(kN * kN * kN, 20 + k));
  }
  std::vector<std::span<cxf>> spans(vols.begin(), vols.end());
  const ShardedBatchTiming t = plan.execute_batch(spans, BatchMode::Pipelined);
  Pin p = observe(t.total, t.makespan_ms, g);
  p.output_hash = output_hash(spans);
  return p;
}

Pin out_of_core(Direction dir) {
  Device dev(sim::geforce_8800_gts());
  OutOfCoreFft3D plan(dev, kN, 4, dir);
  auto data = random_complex<float>(kN * kN * kN, 13);
  const auto t = plan.execute(std::span<cxf>(data));
  Pin p;
  p.makespan_ms = t.makespan_ms;
  p.buckets = {t.h2d1_ms, t.fft1_ms, t.twiddle_ms, t.d2h1_ms,
               t.h2d2_ms, t.fft2_ms, t.d2h2_ms};
  observe_devices(p, {&dev});
  const std::span<cxf> out[] = {data};
  p.output_hash = output_hash(out);
  return p;
}

TEST(ZDecimTimeline, ShardedRealForwardTree2) {
  auto g = tree(2);
  expect_pin(sharded_real(*g, Direction::Forward),
             {2.4619541333358104, 1.5517672161524412,
              {1.3067301343570059, 0.40324357450796633, 0.085197383317713218,
               1.3083633401221992, 0.34673013435700573, 0.16528035988753514,
               1.3083633401221992},
              278528u,
              {{139712u, 139264u, 0.88681612284069111, 1.3083633401221988, 30u},
               {139712u, 139264u, 0.88681612284069111, 1.3083633401221988,
                30u}},
              4366536754101716519ull, 4478689927002196321ull});
}

TEST(ZDecimTimeline, ShardedRealInverseTree2) {
  auto g = tree(2);
  expect_pin(sharded_real(*g, Direction::Inverse),
             {2.5019694174049083, 1.5413467570162911,
              {1.3067301343570059, 0.34245306466729153, 0.085122406747891288,
               1.3083633401221992, 0.34673013435700573, 0.26615184629803129,
               1.3083633401221992},
              278528u,
              {{139712u, 139264u, 0.88681612284069111, 1.3083633401221988, 32u},
               {139712u, 139264u, 0.88681612284069111, 1.3083633401221988,
                32u}},
              11494200095477127691ull, 14836790945874198960ull});
}

TEST(ZDecimTimeline, ShardedRealForwardMesh4) {
  auto g = mesh(4);
  expect_pin(sharded_real(*g, Direction::Forward),
             {2.2180050331176386, 1.8483195064282321,
              {1.3067301343570055, 0.40392836363636364, 0.085122406747891288,
               0.10380260168697285, 0.1076264067478913, 0.16528035988753514,
               1.3083633401221995},
              139264u,
              {{35264u, 34816u, 0.38676852207293655, 0.32709083503054992, 15u},
               {35264u, 34816u, 0.38676852207293655, 0.32709083503054992, 15u},
               {35264u, 34816u, 0.38676852207293655, 0.32709083503054992, 15u},
               {35264u, 34816u, 0.38676852207293655, 0.32709083503054992, 15u}},
              15484622571811433603ull, 4478689927002196321ull});
}

TEST(ZDecimTimeline, ShardedRealInverseMesh4) {
  auto g = mesh(4);
  expect_pin(sharded_real(*g, Direction::Inverse),
             {2.2618087420275828, 1.8669053437355525,
              {1.3067301343570055, 0.34246506466729154, 0.085122406747891288,
               0.10380260168697285, 0.1076264067478913, 0.26615184629803124,
               1.3083633401221995},
              139264u,
              {{35264u, 34816u, 0.38676852207293655, 0.32709083503054992, 16u},
               {35264u, 34816u, 0.38676852207293655, 0.32709083503054992, 16u},
               {35264u, 34816u, 0.38676852207293655, 0.32709083503054992, 16u},
               {35264u, 34816u, 0.38676852207293655, 0.32709083503054992, 16u}},
              17548444923098702347ull, 14836790945874198960ull});
}

TEST(ZDecimTimeline, ShardedRealBatchHostMesh4) {
  // Two half-spectrum volumes through the FftPlan batch entry point: the
  // rows are the bucket sums, last_total_ms() the batch makespan, and
  // last_timing() the final volume's breakdown.
  auto g = mesh(4);
  ShardedRealFft3DPlan plan(*g, kN, 4, Direction::Forward);
  auto v0 = real_volume(17);
  auto v1 = real_volume(19);
  const std::vector<std::span<cxf>> spans{std::span<cxf>(v0),
                                          std::span<cxf>(v1)};
  const auto rows = plan.execute_batch_host(spans);
  ASSERT_EQ(rows.size(), 7u);
  Pin p;
  p.makespan_ms = plan.last_total_ms();
  p.barrier_ms = plan.last_timing().barrier_ms;
  for (std::size_t i = 0; i < rows.size(); ++i) p.buckets[i] = rows[i].ms;
  p.exchange_bytes = plan.last_timing().exchange_bytes();
  observe_devices(p, members(*g));
  p.output_hash = output_hash(spans);
  expect_pin(p,
             {4.4189220662352842, 1.8312315064282338,
              {2.6134602687140109, 0.80785672727272728, 0.17024481349578258,
               0.2076052033739457, 0.2152528134957826, 0.33056071977507029,
               2.6167266802443989},
              139264u,
              {{70080u, 69632u, 0.71345105566218792, 0.65418167006109962, 30u},
               {70080u, 69632u, 0.71345105566218792, 0.65418167006109962, 30u},
               {70080u, 69632u, 0.71345105566218792, 0.65418167006109962, 30u},
               {70080u, 69632u, 0.71345105566218792, 0.65418167006109962, 30u}},
              2785256784210990467ull, 14653791497253969022ull});
}

TEST(ZDecimTimeline, ShardedForwardTree2) {
  auto g = tree(2);
  expect_pin(sharded(*g, Direction::Forward),
             {1.3532105408577093, 0.85653935852632557,
              {0.69031554702495179, 0.2797283523898812, 0.04964500093720714,
               0.69338981670061095, 0.210315547024952, 0.089637000937207126,
               0.69338981670061095},
              524288u,
              {{262464u, 262144u, 0.49037696737044162, 0.69338981670061106,
                16u},
               {262464u, 262144u, 0.49037696737044162, 0.69338981670061106,
                16u}},
              517278212417633923ull, 15148475872261195582ull});
}

TEST(ZDecimTimeline, ShardedInverseTree2) {
  auto g = tree(2);
  expect_pin(sharded(*g, Direction::Inverse),
             {1.3532105408577093, 0.85653935852632557,
              {0.69031554702495179, 0.2797283523898812, 0.04964500093720714,
               0.69338981670061095, 0.210315547024952, 0.089637000937207126,
               0.69338981670061095},
              524288u,
              {{262464u, 262144u, 0.49037696737044162, 0.69338981670061106,
                16u},
               {262464u, 262144u, 0.49037696737044162, 0.69338981670061106,
                16u}},
              517278212417633923ull, 16415980682227994671ull});
}

TEST(ZDecimTimeline, ShardedForwardMesh4) {
  auto g = mesh(4);
  expect_pin(sharded(*g, Direction::Forward),
             {1.2363993226621492, 1.0518472433698465,
              {0.69031554702495201, 0.27934744517338628, 0.049641000937207136,
               0.062687250234301786, 0.060288000000000001, 0.089637000937207126,
               0.69338981670061095},
              262144u,
              {{65856u, 65536u, 0.21264030710172749, 0.17334745417515277, 8u},
               {65856u, 65536u, 0.21264030710172749, 0.17334745417515277, 8u},
               {65856u, 65536u, 0.21264030710172749, 0.17334745417515277, 8u},
               {65856u, 65536u, 0.21264030710172749, 0.17334745417515277, 8u}},
              12085422029756820007ull, 15148475872261195582ull});
}

TEST(ZDecimTimeline, ShardedInverseMesh4) {
  auto g = mesh(4);
  expect_pin(sharded(*g, Direction::Inverse),
             {1.2363993226621492, 1.0518472433698465,
              {0.69031554702495201, 0.27934744517338628, 0.049641000937207136,
               0.062687250234301786, 0.060288000000000001, 0.089637000937207126,
               0.69338981670061095},
              262144u,
              {{65856u, 65536u, 0.21264030710172749, 0.17334745417515277, 8u},
               {65856u, 65536u, 0.21264030710172749, 0.17334745417515277, 8u},
               {65856u, 65536u, 0.21264030710172749, 0.17334745417515277, 8u},
               {65856u, 65536u, 0.21264030710172749, 0.17334745417515277, 8u}},
              12085422029756820007ull, 16415980682227994671ull});
}

TEST(ZDecimTimeline, PencilMesh4) {
  auto g = mesh(4);
  const Decomposition pencil = Decomposition::Pencil;
  expect_pin(sharded(*g, Direction::Forward, 16, &pencil),
             {1.9458001445687609, 1.6000384401593075,
              {0.69031554702495201, 0.69707064196284807, 0.16964500093720714,
               0.1106872502343018, 0.10828800000000004, 0.049657000937207131,
               1.3333898167006109},
              262144u,
              {{65536u, 65536u, 0.17257888675623803, 0.33334745417515277, 17u},
               {65536u, 65536u, 0.17257888675623803, 0.33334745417515277, 17u},
               {65536u, 65536u, 0.17257888675623803, 0.33334745417515277, 17u},
               {65536u, 65536u, 0.17257888675623803, 0.33334745417515277, 17u}},
              13957910798047202311ull, 3068613840653774334ull});
}

TEST(ZDecimTimeline, PencilTorus2x2) {
  auto g = torus(2, 2);
  const Decomposition pencil = Decomposition::Pencil;
  expect_pin(sharded(*g, Direction::Forward, 16, &pencil),
             {1.9954174779020926, 1.6496557734926391,
              {0.69031554702495201, 0.69707064196284807, 0.16964500093720714,
               0.12024458356763512, 0.11784533333333334, 0.049657000937207131,
               1.3333898167006109},
              262144u,
              {{65536u, 65536u, 0.17257888675623803, 0.33334745417515277, 17u},
               {65536u, 65536u, 0.17257888675623803, 0.33334745417515277, 17u},
               {65536u, 65536u, 0.17257888675623803, 0.33334745417515277, 17u},
               {65536u, 65536u, 0.17257888675623803, 0.33334745417515277, 17u}},
              13957910798047202311ull, 3068613840653774334ull});
}

TEST(ZDecimTimeline, PipelinedBatchGtx280Tree2) {
  auto g = tree(2, sim::geforce_gtx_280());
  expect_pin(pipelined(*g),
             {2.3134231332883233, 2.7977955537111416,
              {2.0656355555555557, 0.70765409394790735, 0.13267394432126137,
               2.0712369230769228, 0.6256355555555555, 0.25268594432126135,
               2.0712369230769228},
              1572864u,
              {{786752u, 786432u, 1.3856948148148147, 2.0712369230769183, 48u},
               {786752u, 786432u, 1.3856948148148147, 2.0712369230769183, 48u}},
              4484490109647607971ull, 13789330026670200043ull});
}

TEST(ZDecimTimeline, PipelinedBatchMesh4) {
  auto g = mesh(4);
  expect_pin(pipelined(*g),
             {3.6651611515657061, 6.3017330244670742,
              {2.070946641074856, 0.84769939445087295, 0.1489390028116214,
               0.18806175070290537, 0.180864, 0.26891100281162139,
               2.0801694501018329},
              786432u,
              {{196928u, 196608u, 0.55779808061420344, 0.52004236252545832,
                24u},
               {196928u, 196608u, 0.55779808061420344, 0.52004236252545832,
                24u},
               {196928u, 196608u, 0.55779808061420344, 0.52004236252545832,
                24u},
               {196928u, 196608u, 0.55779808061420344, 0.52004236252545832,
                24u}},
              16063958268001211887ull, 13789330026670200043ull});
}

TEST(ZDecimTimeline, OutOfCoreForward) {
  expect_pin(out_of_core(Direction::Forward),
             {2.7064210817154137, 0,
              {0.69031554702495168, 0.2797283523898812, 0.04964500093720714,
               0.69338981670061051, 0.210315547024952, 0.08963700093720714,
               0.69338981670061051},
              0u,
              {{524608u, 524288u, 0.94069251439539325, 1.3867796334012206,
                32u}},
              1273441858931224451ull, 16566092380566803035ull});
}

TEST(ZDecimTimeline, OutOfCoreInverse) {
  expect_pin(out_of_core(Direction::Inverse),
             {2.7064210817154137, 0,
              {0.69031554702495168, 0.2797283523898812, 0.04964500093720714,
               0.69338981670061051, 0.210315547024952, 0.08963700093720714,
               0.69338981670061051},
              0u,
              {{524608u, 524288u, 0.94069251439539325, 1.3867796334012206,
                32u}},
              1273441858931224451ull, 4468205884165092580ull});
}

// ---- Host batches, dealt batches and lost-card reruns ----

std::vector<std::vector<cxf>> complex_volumes(std::size_t count,
                                              std::uint64_t seed) {
  std::vector<std::vector<cxf>> vols;
  for (std::size_t k = 0; k < count; ++k) {
    vols.push_back(random_complex<float>(kN * kN * kN, seed + k));
  }
  return vols;
}

TEST(ZDecimTimeline, OutOfCoreBatchHost) {
  // Two cubes through the FftPlan batch entry point: they run back to
  // back (neither fits on the card), the rows are the bucket sums and
  // last_total_ms() the batch span on the device clock.
  Device dev(sim::geforce_8800_gts());
  OutOfCoreFft3D plan(dev, kN, 4, Direction::Forward);
  auto vols = complex_volumes(2, 31);
  const std::vector<std::span<cxf>> spans(vols.begin(), vols.end());
  const auto rows = plan.execute_batch_host(spans);
  Pin p;
  p.makespan_ms = plan.last_total_ms();
  observe_rows(p, rows);
  observe_devices(p, {&dev});
  p.output_hash = output_hash(spans);
  expect_pin(p,
             {5.4128421634308266, 0,
              {1.3806310940499034, 0.55945670477976239, 0.09929000187441428,
               1.386779633401221, 0.42063109404990401, 0.17927400187441428,
               1.386779633401221},
              0u,
              {{1048896u, 1048576u, 1.841323608445296, 2.7735592668024358,
                64u}},
              9731115556359052163ull, 2084829344741149781ull});
  EXPECT_EQ(dev.health().device_lost_failovers, 0u);
}

TEST(ZDecimTimeline, DealtBatchTree3) {
  // Five cubes dealt round-robin over three cards, then the FftPlan batch
  // entry point over two more on the same plan: dealing restarts at
  // member 0, the rows are the out-of-core buckets summed over the batch
  // and last_total_ms() the dealt makespan.
  auto g = tree(3);
  BatchShardedFft3DPlan plan(*g, kN, 4, Direction::Forward);
  auto vols = complex_volumes(5, 40);
  const std::vector<std::span<cxf>> spans(vols.begin(), vols.end());
  const BatchDealTiming bt = plan.execute_batch(spans);
  Pin p;
  p.makespan_ms = bt.makespan_ms;
  observe_devices(p, members(*g));
  p.output_hash = output_hash(spans);
  expect_pin(p,
             {5.4895407085285912, 0, {0, 0, 0, 0, 0, 0, 0}, 0u,
              {{1048896u, 1048576u, 1.8858349999999999, 2.8057599999999998,
                64u},
               {1048896u, 1048576u, 1.8858349999999999, 2.8057599999999998,
                64u},
               {524608u, 524288u, 0.96295500000000001, 1.4028799999999999,
                32u}},
              4958869335081459587ull, 3537010597727183797ull});
  expect_deal(bt, {0, 1, 2, 0, 1},
              {2.7447703542642947, 2.7447703542642947, 2.7447703542642947,
               5.4895407085285912, 5.4895407085285912});
  EXPECT_EQ(failovers(*g), (Ledger{0, 0, 0}));

  auto more = complex_volumes(2, 50);
  const std::vector<std::span<cxf>> more_spans(more.begin(), more.end());
  const auto rows = plan.execute_batch_host(more_spans);
  Pin q;
  q.makespan_ms = plan.last_total_ms();
  observe_rows(q, rows);
  observe_devices(q, members(*g));
  q.output_hash = output_hash(more_spans);
  expect_pin(q,
             {2.7447703542643014, 0,
              {1.4028800000000008, 0.55945670477976239, 0.09929000187441428,
               1.4028800000000008, 0.44288000000000005, 0.17927400187441428,
               1.4028800000000008},
              0u,
              {{1573184u, 1572864u, 2.8087149999999999, 4.2086399999999999,
                96u},
               {1573184u, 1572864u, 2.8087149999999999, 4.2086399999999999,
                96u},
               {524608u, 524288u, 0.96295500000000001, 1.4028799999999999,
                32u}},
              3611785157035833219ull, 2960917432801934130ull});
  EXPECT_EQ(failovers(*g), (Ledger{0, 0, 0}));
}

/// One 32^3 forward cube on a two-card tree whose member 1 is lost at its
/// `nth` DeviceLost occurrence: the run restores the input and reruns on
/// the survivor, so the output matches ShardedForwardTree2's. The lost
/// card holds the only failover in the ledger.
Pin sharded_lost_card(std::uint64_t nth) {
  auto g = tree(2);
  ShardedFft3DPlan plan(*g, kN, 4, Direction::Forward);
  g->faults(1).arm(sim::FaultKind::DeviceLost, nth);
  auto data = random_complex<float>(kN * kN * kN, 11);
  const ShardedTiming t = plan.execute(std::span<cxf>(data));
  EXPECT_EQ(plan.last_total_ms(), t.makespan_ms);
  Pin p = observe(t, t.makespan_ms, *g);
  const std::span<cxf> out[] = {data};
  p.output_hash = output_hash(out);
  EXPECT_EQ(failovers(*g), (Ledger{0, 1}));
  return p;
}

TEST(ZDecimTimeline, ShardedLostCardAt5Tree2) {
  expect_pin(sharded_lost_card(5),
             {2.706421081715412, 1.7130787170526458,
              {0.69031554702495168, 0.2797283523898812, 0.04964500093720714,
               0.69338981670061051, 0.210315547024952, 0.08963700093720714,
               0.69338981670061051},
              524288u,
              {{590144u, 589824u, 1.1132714011516307, 1.5601270875763724,
                38u},
               {16704u, 0u, 0.083206142034548944, 0, 0u}},
              3952214795282524586ull, 15148475872261195582ull});
}

TEST(ZDecimTimeline, ShardedLostCardAt30Tree2) {
  expect_pin(sharded_lost_card(30),
             {2.7064210817154106, 1.7130787170526443,
              {0.69031554702495168, 0.2797283523898812, 0.04964500093720714,
               0.69338981670061051, 0.210315547024952, 0.08963700093720714,
               0.69338981670061051},
              524288u,
              {{655680u, 655360u, 1.2858502879078686, 1.7334745417515243,
                44u},
               {98624u, 65536u, 0.29892975047984649, 0.17334745417515277,
                6u}},
              5014928778063418238ull, 15148475872261195582ull});
}

TEST(ZDecimTimeline, ShardedLostCardAt60Tree2) {
  expect_pin(sharded_lost_card(60),
             {2.7064210817154106, 1.7130787170526443,
              {0.69031554702495168, 0.2797283523898812, 0.04964500093720714,
               0.69338981670061051, 0.210315547024952, 0.08963700093720714,
               0.69338981670061051},
              524288u,
              {{786752u, 786432u, 1.3910080614203444, 2.080169450101828,
                48u},
               {196928u, 196608u, 0.43779808061420356, 0.52004236252545832,
                14u}},
              4154598824693475139ull, 15148475872261195582ull});
}

TEST(ZDecimTimeline, DealtBatchLostCardTree2) {
  // Four cubes dealt over two cards; member 1 is lost during its second
  // volume (volume 3), which restores and re-deals to member 0.
  auto g = tree(2);
  BatchShardedFft3DPlan plan(*g, kN, 4, Direction::Forward);
  g->faults(1).arm(sim::FaultKind::DeviceLost, 200);
  auto vols = complex_volumes(4, 60);
  const std::vector<std::span<cxf>> spans(vols.begin(), vols.end());
  const BatchDealTiming bt = plan.execute_batch(spans);
  Pin p;
  p.makespan_ms = bt.makespan_ms;
  observe_devices(p, members(*g));
  p.output_hash = output_hash(spans);
  expect_pin(p,
             {8.119263245146259, 0, {0, 0, 0, 0, 0, 0, 0}, 0u,
              {{1573184u, 1572864u, 2.7419547024951969, 4.1603389002036506,
                96u},
               {721216u, 671744u, 1.4584291746641063, 1.7768114052953123,
                50u}},
              12927776679946658174ull, 5038495775037811215ull});
  expect_deal(bt, {0, 1, 0, 0},
              {2.7064210817154137, 2.7064210817154137, 5.4128421634308266,
               8.119263245146259});
  EXPECT_EQ(failovers(*g), (Ledger{0, 1}));
}

TEST(ZDecimTimeline, ShardedRealInverseBatchHostTree2) {
  // Two half-spectrum volumes back to back through ShardedExecutor's host
  // batch: rows summed, last_total_ms() the span on the fleet clock,
  // last_timing() the final volume's breakdown.
  auto g = tree(2);
  ShardedRealFft3DPlan plan(*g, kN, 4, Direction::Inverse);
  auto v0 = real_volume(23);
  auto v1 = real_volume(29);
  const std::vector<std::span<cxf>> spans{std::span<cxf>(v0),
                                          std::span<cxf>(v1)};
  const auto rows = plan.execute_batch_host(spans);
  Pin p;
  p.makespan_ms = plan.last_total_ms();
  p.barrier_ms = plan.last_timing().barrier_ms;
  observe_rows(p, rows);
  p.exchange_bytes = plan.last_timing().exchange_bytes();
  observe_devices(p, members(*g));
  p.output_hash = output_hash(spans);
  expect_pin(p,
             {4.983926550740728, 1.5213344729471912,
              {2.6134602687140118, 0.68490612933458306, 0.17024481349578258,
               2.6167266802443985, 0.69346026871401145, 0.53230369259606258,
               2.6167266802443985},
              278528u,
              {{278976u, 278528u, 1.7135462571976965, 2.6167266802443963,
                64u},
               {278976u, 278528u, 1.7135462571976965, 2.6167266802443963,
                64u}},
              9631326541530521267ull, 7504908339054235424ull});
  EXPECT_EQ(failovers(*g), (Ledger{0, 0}));
}

}  // namespace
}  // namespace repro::gpufft
