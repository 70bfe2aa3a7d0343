// End-to-end checks of the Device + kernel framework with small synthetic
// kernels: functional correctness, stats collection, coalescing detection,
// capacity enforcement and clock accounting.
#include "sim/device.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/complex.h"

namespace repro::sim {
namespace {

/// Copies n floats with perfectly coalesced accesses.
class CoalescedCopy final : public Kernel {
 public:
  CoalescedCopy(DeviceBuffer<float>& in, DeviceBuffer<float>& out,
                unsigned grid = 8, unsigned block = 64)
      : in_(in), out_(out), grid_(grid), block_(block) {}

  [[nodiscard]] LaunchConfig config() const override {
    LaunchConfig c;
    c.name = "coalesced_copy";
    c.grid_blocks = grid_;
    c.threads_per_block = block_;
    c.regs_per_thread = 8;
    return c;
  }

  void run_block(BlockCtx& ctx) override {
    auto in = ctx.global(in_);
    auto out = ctx.global(out_);
    const std::size_t n = in_.size();
    ctx.threads([&](ThreadCtx& t) {
      for (std::size_t i = t.global_id(); i < n; i += t.total_threads()) {
        out.store(t, i, in.load(t, i));
      }
    });
  }

 private:
  DeviceBuffer<float>& in_;
  DeviceBuffer<float>& out_;
  unsigned grid_;
  unsigned block_;
};

/// Copies with a per-thread stride so half-warp slots never coalesce.
class StridedCopy final : public Kernel {
 public:
  StridedCopy(DeviceBuffer<float>& in, DeviceBuffer<float>& out,
              std::size_t stride)
      : in_(in), out_(out), stride_(stride) {}

  [[nodiscard]] LaunchConfig config() const override {
    LaunchConfig c;
    c.name = "strided_copy";
    c.grid_blocks = 8;
    c.threads_per_block = 64;
    c.regs_per_thread = 8;
    return c;
  }

  void run_block(BlockCtx& ctx) override {
    auto in = ctx.global(in_);
    auto out = ctx.global(out_);
    const std::size_t n = in_.size();
    ctx.threads([&](ThreadCtx& t) {
      // Thread k copies the stride-long chunks k, k + T, k + 2T, ... of
      // the T threads' grid: lanes are stride apart, and no two threads
      // touch the same element.
      for (std::size_t i = t.global_id() * stride_; i < n;
           i = (i + 1) % stride_ == 0
                   ? i + 1 + (t.total_threads() - 1) * stride_
                   : i + 1) {
        out.store(t, i, in.load(t, i));
      }
    });
  }

 private:
  DeviceBuffer<float>& in_;
  DeviceBuffer<float>& out_;
  std::size_t stride_;
};

/// 8 blocks of 32 threads; every thread stores 3 elements of its block's
/// 96-element slice, the slice's last row first, so the launch's last
/// store (block 7, thread 31, row 0) is not its highest index.
class RowsBackwards final : public Kernel {
 public:
  explicit RowsBackwards(DeviceBuffer<float>& out) : out_(out) {}

  [[nodiscard]] LaunchConfig config() const override {
    LaunchConfig c;
    c.name = "rows_backwards";
    c.grid_blocks = 8;
    c.threads_per_block = 32;
    c.regs_per_thread = 8;
    return c;
  }

  void run_block(BlockCtx& ctx) override {
    auto out = ctx.global(out_);
    ctx.threads([&](ThreadCtx& t) {
      for (unsigned row = 3; row-- > 0;) {
        const std::size_t i = t.block * 96 + row * 32 + t.tid;
        out.store(t, i, static_cast<float>(i + 1));
      }
    });
  }

 private:
  DeviceBuffer<float>& out_;
};

/// Every block stores its threads' global ids; block `first_bad` then
/// opens a shared window past its allocation (repro::Error) and every
/// later block throws a plain std::runtime_error.
class FailingBlocks final : public Kernel {
 public:
  FailingBlocks(DeviceBuffer<int>& out, unsigned first_bad)
      : out_(out), first_bad_(first_bad) {}

  [[nodiscard]] LaunchConfig config() const override {
    LaunchConfig c;
    c.name = "failing_blocks";
    c.grid_blocks = 8;
    c.threads_per_block = 32;
    c.regs_per_thread = 8;
    c.shmem_per_block = 128;
    return c;
  }

  void run_block(BlockCtx& ctx) override {
    auto out = ctx.global(out_);
    ctx.threads([&](ThreadCtx& t) {
      out.store(t, t.global_id(), static_cast<int>(t.global_id()));
    });
    if (ctx.block_index() == first_bad_) {
      ctx.shared<float>(0, 64);  // 256 B > 128 B allocation
    }
    if (ctx.block_index() > first_bad_) {
      throw std::runtime_error("a later block failed");
    }
  }

 private:
  DeviceBuffer<int>& out_;
  unsigned first_bad_;
};

TEST(Device, TransfersAreFunctionallyCorrect) {
  Device dev(geforce_8800_gt());
  auto buf = dev.alloc<float>(1000);
  std::vector<float> src(1000);
  std::iota(src.begin(), src.end(), 0.0f);
  dev.h2d(buf, std::span<const float>(src));
  std::vector<float> dst(1000);
  dev.d2h(std::span<float>(dst), buf);
  EXPECT_EQ(src, dst);
  EXPECT_GT(dev.elapsed_ms(), 0.0);
  EXPECT_EQ(dev.h2d_bytes(), 4000u);
  EXPECT_EQ(dev.d2h_bytes(), 4000u);
}

TEST(Device, PartialTransfers) {
  Device dev(geforce_8800_gt());
  auto buf = dev.alloc<int>(100);
  const std::vector<int> src{1, 2, 3};
  dev.h2d(buf, std::span<const int>(src), 10);
  std::vector<int> dst(3);
  dev.d2h(std::span<int>(dst), buf, 10);
  EXPECT_EQ(dst, src);
}

TEST(Device, CapacityEnforced) {
  Device dev(geforce_8800_gts());  // 512 MB
  auto big = dev.alloc<float>(100u << 20);  // 400 MB
  EXPECT_THROW(dev.alloc<float>(50u << 20), OutOfDeviceMemory);  // +200 MB
  // RAII: freeing the first buffer makes room.
  big = DeviceBuffer<float>();
  EXPECT_NO_THROW(dev.alloc<float>(50u << 20));
}

TEST(Device, AllocationTracking) {
  Device dev(geforce_8800_gt());
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  {
    auto a = dev.alloc<double>(1024);
    EXPECT_EQ(dev.allocated_bytes(), 8192u);
    auto b = dev.alloc<float>(10);
    EXPECT_EQ(dev.allocated_bytes(), 8192u + 40u);
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(Device, PeakStatsAreDeviceLifetimeUntilReset) {
  Device dev(geforce_8800_gt());
  auto a = dev.alloc<float>(1 << 20);  // 4 MB
  {
    auto b = dev.alloc<float>(1 << 20);
    EXPECT_EQ(dev.peak_allocated_bytes(), 8u << 20);
    EXPECT_EQ(dev.alloc_count(), 2u);
  }
  // reset_clock is a timing concern: allocator stats survive it.
  dev.reset_clock();
  EXPECT_EQ(dev.peak_allocated_bytes(), 8u << 20);
  EXPECT_EQ(dev.alloc_count(), 2u);
  // reset_peak_stats re-anchors the peak to what is still allocated.
  dev.reset_peak_stats();
  EXPECT_EQ(dev.peak_allocated_bytes(), 4u << 20);
  EXPECT_EQ(dev.alloc_count(), 0u);
  auto c = dev.alloc<float>(2 << 20);
  EXPECT_EQ(dev.peak_allocated_bytes(), 12u << 20);
  EXPECT_EQ(dev.alloc_count(), 1u);
}

TEST(Device, DistinctBuffersDistinctAddresses) {
  Device dev(geforce_8800_gt());
  auto a = dev.alloc<float>(100);
  auto b = dev.alloc<float>(100);
  EXPECT_NE(a.base_addr(), b.base_addr());
  EXPECT_EQ(a.base_addr() % 256, 0u);
  EXPECT_EQ(b.base_addr() % 256, 0u);
}

TEST(Device, KernelCopiesData) {
  Device dev(geforce_8800_gtx());
  const std::size_t n = 64 * 1024;
  auto in = dev.alloc<float>(n);
  auto out = dev.alloc<float>(n);
  std::vector<float> src(n);
  std::iota(src.begin(), src.end(), 1.0f);
  dev.h2d(in, std::span<const float>(src));

  CoalescedCopy k(in, out);
  const LaunchResult r = dev.launch(k);

  std::vector<float> dst(n);
  dev.d2h(std::span<float>(dst), out);
  EXPECT_EQ(dst, src);
  EXPECT_GT(r.total_ms, 0.0);
  EXPECT_EQ(r.name, "coalesced_copy");
}

TEST(Device, CoalescedCopyIsDetectedAndFast) {
  Device dev(geforce_8800_gtx());
  const std::size_t n = 1u << 20;
  auto in = dev.alloc<float>(n);
  auto out = dev.alloc<float>(n);
  CoalescedCopy k(in, out, 32, 64);
  const LaunchResult r = dev.launch(k);
  EXPECT_GT(r.coalesced_fraction, 0.99);
  // Achieved bandwidth should be a large fraction of peak.
  EXPECT_GT(r.effective_gbs, 0.6 * dev.spec().peak_bandwidth_gbs());
  EXPECT_EQ(r.dram_bytes, 2ull * n * sizeof(float));
}

TEST(Device, StridedCopyIsDetectedAndSlow) {
  Device dev(geforce_8800_gtx());
  const std::size_t n = 1u << 20;
  auto in = dev.alloc<float>(n);
  auto out = dev.alloc<float>(n);

  CoalescedCopy good(in, out, 32, 64);
  StridedCopy bad(in, out, n / (32 * 64));
  const LaunchResult rg = dev.launch(good);
  const LaunchResult rb = dev.launch(bad);

  EXPECT_LT(rb.coalesced_fraction, 0.01);
  // Uncoalesced 4-byte accesses are padded to 32-byte bursts: 8x traffic.
  EXPECT_GT(rb.dram_bytes, 6ull * rg.dram_bytes);
  EXPECT_GT(rb.total_ms, 3.0 * rg.total_ms);
}

TEST(Device, KernelCorruptHitsTheLastStoreOfTheHighestBlock) {
  Device dev(geforce_8800_gtx());
  auto out = dev.alloc<float>(8 * 96);
  RowsBackwards k(out);
  dev.faults().arm(FaultKind::KernelCorrupt, 1, 1);
  dev.launch(k);
  ASSERT_EQ(dev.faults().fired(FaultKind::KernelCorrupt), 1u);

  std::vector<float> got(8 * 96);
  dev.d2h(std::span<float>(got), out);
  // Block 7's last store is thread 31's row 0: element 7*96 + 31 = 703,
  // holding 704, scaled by 2^40.
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float expected =
        i == 703 ? 704.0f * 0x1p40f : static_cast<float>(i + 1);
    EXPECT_EQ(got[i], expected) << "element " << i;
  }
}

TEST(Device, BlockExceptionPropagatesAndChargesNothing) {
  Device dev(geforce_8800_gtx());
  const std::size_t n = 4096;
  auto in = dev.alloc<float>(n);
  auto out = dev.alloc<float>(n);
  auto ids = dev.alloc<int>(8 * 32);
  std::vector<float> src(n);
  std::iota(src.begin(), src.end(), 1.0f);
  dev.h2d(in, std::span<const float>(src));
  CoalescedCopy good(in, out);
  dev.launch(good);
  const std::size_t launches = dev.history().size();
  const double before_ms = dev.elapsed_ms();

  // Blocks 5, 6 and 7 fail; the caller sees block 5's error.
  FailingBlocks bad(ids, 5);
  try {
    dev.launch(bad);
    FAIL() << "launch did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("shared-memory window"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(dev.history().size(), launches);
  EXPECT_EQ(dev.elapsed_ms(), before_ms);

  // The device is not left wedged: the next launch runs and is charged.
  std::vector<float> zeros(n, 0.0f);
  dev.h2d(out, std::span<const float>(zeros));
  const double before_copy_ms = dev.elapsed_ms();
  const LaunchResult r = dev.launch(good);
  EXPECT_EQ(dev.history().size(), launches + 1);
  EXPECT_GT(r.total_ms, 0.0);
  EXPECT_GT(dev.elapsed_ms(), before_copy_ms);
  std::vector<float> dst(n);
  dev.d2h(std::span<float>(dst), out);
  EXPECT_EQ(dst, src);
}

TEST(Device, ClockAdvancesAndResets) {
  Device dev(geforce_8800_gt());
  auto in = dev.alloc<float>(4096);
  auto out = dev.alloc<float>(4096);
  CoalescedCopy k(in, out);
  dev.launch(k);
  const double t1 = dev.elapsed_ms();
  EXPECT_GT(t1, 0.0);
  dev.launch(k);
  EXPECT_GT(dev.elapsed_ms(), t1);
  EXPECT_EQ(dev.history().size(), 2u);
  dev.reset_clock();
  EXPECT_EQ(dev.elapsed_ms(), 0.0);
  EXPECT_TRUE(dev.history().empty());
}

TEST(Device, SamplingInvariance) {
  // Halving the sampling budget must not materially change the estimate.
  const std::size_t n = 1u << 20;
  auto run = [&](std::uint32_t budget) {
    Device dev(geforce_8800_gtx());
    dev.options().sample_accesses_per_thread = budget;
    auto in = dev.alloc<float>(n);
    auto out = dev.alloc<float>(n);
    CoalescedCopy k(in, out, 32, 64);
    return dev.launch(k).total_ms;
  };
  const double full = run(2048);
  const double half = run(1024);
  EXPECT_NEAR(half, full, 0.15 * full);
}

}  // namespace
}  // namespace repro::sim
