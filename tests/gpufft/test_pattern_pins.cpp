// Golden pins of Table 2's sixteen pattern copies (Tables 3/4): every
// (input, output) pair of PatternCopyKernel over V(256,16,16,16,16) on the
// 8800 GT at the paper's grid (42 blocks x 64 threads), as
// bench_access_patterns launches them. One case per input pattern.
//
// Each copy pins, exactly, the launch name, its total and memory ms, its
// DRAM bytes and coalesced fraction, and an FNV-1a hash over the output of
// a deterministic input (element i holds i), so both where every element
// lands and what the simulator measured on the way are fixed. On a
// mismatch the test prints the observed pins as C++ initializers.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "gpufft/copy_kernels.h"

namespace repro::gpufft {
namespace {

struct CopyPin {
  std::string name;
  double total_ms{};
  double mem_ms{};
  std::uint64_t dram_bytes{};
  double coalesced_fraction{};
  std::uint64_t output_hash{};
};

std::uint64_t fnv1a(const void* p, std::size_t len) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// The pin as a C++ initializer (the re-baseline line).
std::string to_cpp(const CopyPin& p) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %.17g, %.17g, %lluull, %.17g, %lluull}",
                p.name.c_str(), p.total_ms, p.mem_ms,
                static_cast<unsigned long long>(p.dram_bytes),
                p.coalesced_fraction,
                static_cast<unsigned long long>(p.output_hash));
  return buf;
}

constexpr std::array<Pattern, 4> kPatterns = {Pattern::A, Pattern::B,
                                              Pattern::C, Pattern::D};

/// Copy the deterministic input along `in_p` -> each output pattern on a
/// fresh 8800 GT and compare every pin exactly.
void expect_copies(Pattern in_p, const std::array<CopyPin, 4>& want) {
  Device dev(sim::geforce_8800_gt());
  const std::size_t volume = pattern_shape().volume();
  auto in = dev.alloc<cxf>(volume);
  auto out = dev.alloc<cxf>(volume);
  // The input once; the host copy then receives each output in turn.
  std::vector<cxf> host(volume);
  for (std::size_t i = 0; i < volume; ++i) {
    host[i] = {static_cast<float>(i), 1.0f};  // exact: volume == 2^24
  }
  dev.h2d(in, std::span<const cxf>(host));
  for (std::size_t o = 0; o < kPatterns.size(); ++o) {
    PatternCopyKernel k(in, out, in_p, kPatterns[o],
                        default_grid_blocks(dev.spec()));
    const auto r = dev.launch(k);
    dev.d2h(std::span<cxf>(host), out);
    const CopyPin got{r.name,
                      r.total_ms,
                      r.mem_ms,
                      r.dram_bytes,
                      r.coalesced_fraction,
                      fnv1a(host.data(), host.size() * sizeof(cxf))};
    SCOPED_TRACE("observed pin: " + to_cpp(got));
    const CopyPin& w = want[o];
    EXPECT_EQ(got.name, w.name);
    EXPECT_EQ(got.total_ms, w.total_ms);
    EXPECT_EQ(got.mem_ms, w.mem_ms);
    EXPECT_EQ(got.dram_bytes, w.dram_bytes);
    EXPECT_EQ(got.coalesced_fraction, w.coalesced_fraction);
    EXPECT_EQ(got.output_hash, w.output_hash);
  }
}

TEST(PatternCopyPins, FromA) {
  expect_copies(Pattern::A,
                {{{"copy_A_to_A", 5.5282299387587912, 5.5182299387587914,
                  268435456ull, 1, 1808126344117655482ull},
                 {"copy_A_to_B", 5.4647907006634888, 5.454790700663489,
                  268435456ull, 1, 8442606300985223098ull},
                 {"copy_A_to_C", 5.9509981533742033, 5.9409981533742036,
                  268435456ull, 1, 5620548939974480826ull},
                 {"copy_A_to_D", 6.4853253524084806, 6.4753253524084808,
                  268435456ull, 1, 13745399761823355834ull}}});
}

TEST(PatternCopyPins, FromB) {
  expect_copies(Pattern::B,
                {{{"copy_B_to_A", 5.4648378207532744, 5.4548378207532746,
                  268435456ull, 1, 8442606300985223098ull},
                 {"copy_B_to_B", 5.4013985826579693, 5.3913985826579696,
                  268435456ull, 1, 1808126344117655482ull},
                 {"copy_B_to_C", 5.8876060353686999, 5.8776060353687001,
                  268435456ull, 1, 5107509218138167226ull},
                 {"copy_B_to_D", 6.4221607899585456, 6.4121607899585458,
                  268435456ull, 1, 1944249321623427002ull}}});
}

TEST(PatternCopyPins, FromC) {
  expect_copies(Pattern::C,
                {{{"copy_C_to_A", 5.9509011560319456, 5.9409011560319458,
                  268435456ull, 1, 2437777851670914490ull},
                 {"copy_C_to_B", 5.8875090380265371, 5.8775090380265373,
                  268435456ull, 1, 5107509218138167226ull},
                 {"copy_C_to_C", 7.4013096899424307, 7.39130968994243,
                  268435456ull, 1, 1808126344117655482ull},
                 {"copy_C_to_D", 8.4991241154576436, 8.4891241154576438,
                  268435456ull, 1, 14595292638155937722ull}}});
}

TEST(PatternCopyPins, FromD) {
  expect_copies(Pattern::D,
                {{{"copy_D_to_A", 6.4695597007999384, 6.4595597007999377,
                  268435456ull, 1, 3055633008251545018ull},
                 {"copy_D_to_B", 6.4062667426632567, 6.3962667426632569,
                  268435456ull, 1, 12734023403752167354ull},
                 {"copy_D_to_C", 8.4621904018942953, 8.4521904018942955,
                  268435456ull, 1, 14595292638155937722ull},
                 {"copy_D_to_D", 9.5969385409669616, 9.5869385409669619,
                  268435456ull, 1, 1808126344117655482ull}}});
}

}  // namespace
}  // namespace repro::gpufft
