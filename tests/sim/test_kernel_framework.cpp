// Focused tests of the kernel-execution framework's instrumentation:
// texture-cache modelling, constant-memory serialization, shared-memory
// bank conflicts, sampling options, and the global/shared accessor plumbing.
#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <vector>

#include "sim/device.h"

namespace repro::sim {
namespace {

/// Minimal configurable kernel for poking one framework feature at a time.
class ProbeKernel final : public Kernel {
 public:
  using Body = std::function<void(BlockCtx&)>;
  ProbeKernel(LaunchConfig cfg, Body body)
      : cfg_(std::move(cfg)), body_(std::move(body)) {}
  [[nodiscard]] LaunchConfig config() const override { return cfg_; }
  void run_block(BlockCtx& ctx) override { body_(ctx); }

 private:
  LaunchConfig cfg_;
  Body body_;
};

LaunchConfig small_cfg(unsigned grid = 2, unsigned block = 32,
                       std::size_t shmem = 0) {
  LaunchConfig c;
  c.name = "probe";
  c.grid_blocks = grid;
  c.threads_per_block = block;
  c.regs_per_thread = 8;
  c.shmem_per_block = shmem;
  return c;
}

TEST(Framework, TextureCacheHitsAreCheap) {
  // All threads loop over a tiny table through the texture path: after the
  // first pass the lines are resident, so a broadcast-heavy kernel is much
  // faster than streaming the same volume uncached.
  Device dev(geforce_8800_gt());
  auto table = dev.alloc<float>(64);  // 256 B: fits any cache
  auto sink = dev.alloc<float>(64 * 1024);

  ProbeKernel k(small_cfg(8, 64), [&](BlockCtx& ctx) {
    auto tex = ctx.texture(table);
    auto out = ctx.global(sink);
    ctx.threads([&](ThreadCtx& t) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < 1024; ++i) {
        acc += tex.fetch(t, i % 64);
      }
      out.store(t, t.global_id(), acc);
    });
  });
  const auto r = dev.launch(k);
  // DRAM traffic: the sink stores plus at most a few cache-miss lines —
  // nowhere near the 512 threads * 1024 fetches * 4 B of texture reads.
  EXPECT_LT(r.dram_bytes, 8u * 64 * 1024);
}

TEST(Framework, TextureThrashingCostsBandwidth) {
  // A texture working set far beyond the 8 KB cache must spill to DRAM.
  Device dev(geforce_8800_gt());
  auto table = dev.alloc<float>(1u << 20);  // 4 MB
  auto sink = dev.alloc<float>(64 * 1024);

  ProbeKernel k(small_cfg(8, 64), [&](BlockCtx& ctx) {
    auto tex = ctx.texture(table);
    auto out = ctx.global(sink);
    ctx.threads([&](ThreadCtx& t) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < 512; ++i) {
        acc += tex.fetch(t, (t.global_id() + i * 4099) % (1u << 20));
      }
      out.store(t, t.global_id(), acc);
    });
  });
  const auto r = dev.launch(k);
  // Misses dominate: DRAM traffic is much larger than the sink stores.
  EXPECT_GT(r.dram_bytes, 20u * 64 * 1024);
}

TEST(Framework, ConstantBroadcastBeatsDivergentReads) {
  Device dev(geforce_8800_gts());
  const std::vector<float> table(4096, 1.0f);
  auto sink = dev.alloc<float>(4096);

  auto make = [&](bool divergent) {
    return ProbeKernel(small_cfg(16, 64), [&, divergent](BlockCtx& ctx) {
      auto c = ctx.constant(table);
      auto out = ctx.global(sink);
      ctx.threads([&](ThreadCtx& t) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < 256; ++i) {
          const std::size_t idx = divergent ? (t.tid * 7 + i) % 4096 : i;
          acc += c.load(t, idx);
        }
        out.store(t, t.global_id() % 4096, acc);
      });
    });
  };
  auto broadcast = make(false);
  auto divergent = make(true);
  const auto rb = dev.launch(broadcast);
  const auto rd = dev.launch(divergent);
  EXPECT_GT(rd.compute_ms, 3.0 * rb.compute_ms);
}

TEST(Framework, SharedMemoryConflictsRaiseComputeTime) {
  Device dev(geforce_8800_gt());
  auto sink = dev.alloc<float>(4096);
  auto make = [&](std::size_t stride) {
    return ProbeKernel(
        small_cfg(16, 64, 64 * 32 * sizeof(float)), [&, stride](BlockCtx& ctx) {
          auto sh = ctx.shared<float>(0, 64 * 32);
          auto out = ctx.global(sink);
          ctx.threads([&](ThreadCtx& t) {
            for (std::size_t i = 0; i < 128; ++i) {
              sh.store(t, (t.tid * stride + i * 64) % (64 * 32),
                       static_cast<float>(i));
            }
          });
          ctx.threads([&](ThreadCtx& t) {
            out.store(t, t.global_id() % 4096, sh.load(t, t.tid));
          });
        });
  };
  auto clean = make(1);    // conflict-free
  auto conflict = make(16);  // 16-way bank conflicts
  const auto rc = dev.launch(clean);
  const auto rx = dev.launch(conflict);
  EXPECT_GT(rx.compute_ms, 4.0 * rc.compute_ms);
}

TEST(Framework, GlobalOffsetViewAddressesCorrectly) {
  Device dev(geforce_8800_gt());
  auto buf = dev.alloc<int>(128);
  std::vector<int> init(128, 0);
  dev.h2d(buf, std::span<const int>(init));
  ProbeKernel k(small_cfg(1, 16), [&](BlockCtx& ctx) {
    auto view = ctx.global(buf, 64);  // element offset 64
    ctx.threads([&](ThreadCtx& t) {
      view.store(t, t.tid, static_cast<int>(t.tid) + 1);
    });
  });
  dev.launch(k);
  std::vector<int> out(128);
  dev.d2h(std::span<int>(out), buf);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], 0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(64 + i)], i + 1);
  }
}

TEST(Framework, SharedWindowBoundsChecked) {
  Device dev(geforce_8800_gt());
  ProbeKernel k(small_cfg(1, 16, 256), [&](BlockCtx& ctx) {
    ctx.shared<float>(0, 128);  // 512 B > 256 B allocation
  });
  EXPECT_THROW(dev.launch(k), Error);
}

TEST(Framework, SamplingBudgetCapsRecordedStreams) {
  Device dev(geforce_8800_gtx());
  dev.options().sample_accesses_per_thread = 8;
  auto in = dev.alloc<float>(1u << 18);
  auto out = dev.alloc<float>(1u << 18);
  ProbeKernel k(small_cfg(4, 64), [&](BlockCtx& ctx) {
    auto i = ctx.global(in);
    auto o = ctx.global(out);
    ctx.threads([&](ThreadCtx& t) {
      for (std::size_t j = t.global_id(); j < (1u << 18);
           j += t.total_threads()) {
        o.store(t, j, i.load(t, j));
      }
    });
  });
  const auto r = dev.launch(k);
  // Exact byte totals are NOT affected by the sampling budget.
  EXPECT_EQ(r.dram_bytes, 2ull * (1u << 18) * sizeof(float));
}

TEST(Framework, RepeatedLaunchResultsAreIdentical) {
  // Blocks do uneven work (1 to 8 rounds each) through global, texture,
  // constant and shared views, so a block loop that merged its blocks in
  // the order they finish would change the DRAM replay's stream order.
  constexpr unsigned kGrid = 24;
  constexpr unsigned kBlock = 64;
  constexpr std::size_t kN = std::size_t{kGrid} * kBlock * 8;
  Device dev(geforce_8800_gtx());
  auto in = dev.alloc<float>(kN);
  auto out = dev.alloc<float>(kN);
  auto table = dev.alloc<float>(4096);
  std::vector<float> init(kN);
  for (std::size_t i = 0; i < kN; ++i) init[i] = static_cast<float>(i % 97);
  dev.h2d(in, std::span<const float>(init));
  dev.h2d(table, std::span<const float>(init.data(), 4096));
  const std::vector<float> coeffs(256, 0.5f);

  ProbeKernel k(small_cfg(kGrid, kBlock, kBlock * sizeof(float)),
                [&](BlockCtx& ctx) {
    auto src = ctx.global(in);
    auto dst = ctx.global(out);
    auto tex = ctx.texture(table);
    auto c = ctx.constant(coeffs);
    auto sh = ctx.shared<float>(0, kBlock);
    const unsigned b = ctx.block_index();
    const unsigned rounds = 1 + (b * 5) % 8;
    ctx.threads([&](ThreadCtx& t) {
      float acc = 0.0f;
      for (unsigned r = 0; r < rounds; ++r) {
        acc += src.load(t, (t.global_id() * (r + 1)) % kN);
        acc += tex.fetch(t, (t.tid * 33 + r * 129 + b * 517) % 4096) *
               c.load(t, (t.tid + r) % 256);
      }
      sh.store(t, t.tid, acc);
    });
    ctx.threads([&](ThreadCtx& t) {
      const float v = sh.load(t, (t.tid * 17) % kBlock);
      for (unsigned r = 0; r < rounds; ++r) {
        dst.store(t, t.global_id() + r * (kN / 8), v + static_cast<float>(r));
      }
    });
  });

  const LaunchResult first = dev.launch(k);
  std::vector<float> first_out(kN);
  dev.d2h(std::span<float>(first_out), out);
  for (int i = 1; i < 50; ++i) {
    SCOPED_TRACE(i);
    const LaunchResult r = dev.launch(k);
    EXPECT_EQ(r.name, first.name);
    EXPECT_EQ(r.total_ms, first.total_ms);
    EXPECT_EQ(r.mem_ms, first.mem_ms);
    EXPECT_EQ(r.compute_ms, first.compute_ms);
    EXPECT_EQ(r.dram_bytes, first.dram_bytes);
    EXPECT_EQ(r.achieved_gbs, first.achieved_gbs);
    EXPECT_EQ(r.effective_gbs, first.effective_gbs);
    EXPECT_EQ(r.coalesced_fraction, first.coalesced_fraction);
    EXPECT_EQ(r.occupancy.blocks_per_sm, first.occupancy.blocks_per_sm);
    EXPECT_EQ(r.occupancy.active_threads, first.occupancy.active_threads);
    EXPECT_EQ(r.occupancy.active_warps, first.occupancy.active_warps);
    EXPECT_EQ(r.occupancy.occupancy, first.occupancy.occupancy);
    EXPECT_EQ(r.occupancy.limiter, first.occupancy.limiter);
    EXPECT_EQ(r.gflops, first.gflops);
    std::vector<float> got(kN);
    dev.d2h(std::span<float>(got), out);
    EXPECT_EQ(got, first_out);
  }
}

TEST(Framework, ZeroSampledBlocksFallsBackGracefully) {
  Device dev(geforce_8800_gt());
  dev.options().max_sampled_blocks = 0;
  auto in = dev.alloc<float>(4096);
  auto out = dev.alloc<float>(4096);
  ProbeKernel k(small_cfg(4, 64), [&](BlockCtx& ctx) {
    auto i = ctx.global(in);
    auto o = ctx.global(out);
    ctx.threads([&](ThreadCtx& t) {
      for (std::size_t j = t.global_id(); j < 4096;
           j += t.total_threads()) {
        o.store(t, j, i.load(t, j));
      }
    });
  });
  const auto r = dev.launch(k);
  EXPECT_GT(r.total_ms, 0.0);  // ideal-bandwidth fallback path
}

}  // namespace
}  // namespace repro::sim
