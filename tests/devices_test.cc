// Tests for the simulated devices: GPU contexts/memory/kernels and NVMe timing/data.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/devices/gpu.h"
#include "src/devices/nvme.h"

namespace fractos {
namespace {

class GpuTest : public ::testing::Test {
 protected:
  GpuTest() : net_(&loop_) {
    node_ = net_.add_node("gpu-node");
    gpu_ = std::make_unique<SimGpu>(&net_, node_);
  }

  EventLoop loop_;
  Network net_;
  uint32_t node_ = 0;
  std::unique_ptr<SimGpu> gpu_;
};

TEST_F(GpuTest, AllocFreeAndContextTeardown) {
  const auto ctx = gpu_->create_context();
  const uint64_t a = gpu_->alloc(ctx, 1024).value();
  const uint64_t b = gpu_->alloc(ctx, 2048).value();
  EXPECT_NE(a, b);
  EXPECT_EQ(gpu_->bytes_allocated(), 3072u);
  EXPECT_TRUE(gpu_->free(ctx, a).ok());
  EXPECT_EQ(gpu_->bytes_allocated(), 2048u);
  EXPECT_TRUE(gpu_->destroy_context(ctx).ok());
  EXPECT_EQ(gpu_->bytes_allocated(), 0u);
}

TEST_F(GpuTest, AllocReusesFreedSpace) {
  const auto ctx = gpu_->create_context();
  const uint64_t a = gpu_->alloc(ctx, 4096).value();
  ASSERT_TRUE(gpu_->alloc(ctx, 4096).ok());
  ASSERT_TRUE(gpu_->free(ctx, a).ok());
  const uint64_t c = gpu_->alloc(ctx, 1024).value();
  EXPECT_EQ(c, a);  // first fit lands in the hole
}

TEST_F(GpuTest, AllocExhaustionFails) {
  SimGpu::Params p;
  p.memory_bytes = 8192;
  SimGpu small(&net_, node_, p);
  const auto ctx = small.create_context();
  EXPECT_TRUE(small.alloc(ctx, 8000).ok());
  EXPECT_EQ(small.alloc(ctx, 8000).error(), ErrorCode::kResourceExhausted);
}

// A size near 2^64 must not wrap the placement into memory another allocation holds.
TEST_F(GpuTest, AllocNearTwoToTheSixtyFourCannotReachAnotherAllocation) {
  const auto ctx = gpu_->create_context();
  const uint64_t a = gpu_->alloc(ctx, 1024).value();
  EXPECT_EQ(gpu_->alloc(ctx, ~0ull - 1000).error(), ErrorCode::kResourceExhausted);
  const uint64_t b = gpu_->alloc(ctx, 4096).value();
  EXPECT_TRUE(b >= a + 1024 || b + 4096 <= a) << "a=" << a << " b=" << b;
  EXPECT_EQ(gpu_->bytes_allocated(), 1024u + 4096);
}

// Freed device memory must not carry one tenant's bytes to the next: a fresh allocation over
// a freed or destroyed context's range reads zeros.
TEST_F(GpuTest, FreedMemoryReadsAsZerosToTheNextTenant) {
  PoolBytes& mem = net_.node(node_).pool(gpu_->pool());
  const auto c1 = gpu_->create_context();
  const uint64_t a = gpu_->alloc(c1, 256).value();
  std::fill_n(mem.begin() + static_cast<ptrdiff_t>(a), 256, uint8_t{0x5a});
  ASSERT_TRUE(gpu_->destroy_context(c1).ok());
  const auto c2 = gpu_->create_context();
  const uint64_t b = gpu_->alloc(c2, 256).value();
  ASSERT_EQ(b, a);
  EXPECT_TRUE(std::all_of(mem.begin() + static_cast<ptrdiff_t>(b),
                          mem.begin() + static_cast<ptrdiff_t>(b + 256),
                          [](uint8_t v) { return v == 0; }));

  std::fill_n(mem.begin() + static_cast<ptrdiff_t>(b), 256, uint8_t{0xa5});
  ASSERT_TRUE(gpu_->free(c2, b).ok());
  const auto c3 = gpu_->create_context();
  const uint64_t c = gpu_->alloc(c3, 256).value();
  ASSERT_EQ(c, b);
  EXPECT_TRUE(std::all_of(mem.begin() + static_cast<ptrdiff_t>(c),
                          mem.begin() + static_cast<ptrdiff_t>(c + 256),
                          [](uint8_t v) { return v == 0; }));
}

TEST_F(GpuTest, FreeWrongContextRejected) {
  const auto c1 = gpu_->create_context();
  const auto c2 = gpu_->create_context();
  const uint64_t a = gpu_->alloc(c1, 64).value();
  EXPECT_EQ(gpu_->free(c2, a).error(), ErrorCode::kNotFound);
}

TEST_F(GpuTest, KernelExecutesOverDeviceMemoryWithModeledTime) {
  const auto ctx = gpu_->create_context();
  const uint64_t buf = gpu_->alloc(ctx, 256).value();
  auto& mem = net_.node(node_).pool(gpu_->pool());
  for (int i = 0; i < 256; ++i) {
    mem[buf + static_cast<uint64_t>(i)] = static_cast<uint8_t>(i);
  }
  const auto kid = gpu_->load_kernel("add1", [](PoolBytes& m,
                                                const std::vector<uint64_t>& args) {
    const uint64_t addr = args[0];
    const uint64_t n = args[1];
    for (uint64_t i = 0; i < n; ++i) {
      m[addr + i] = static_cast<uint8_t>(m[addr + i] + 1);
    }
    return Duration::micros(100);
  });
  bool done = false;
  gpu_->launch(kid, {buf, 256}, [&](Status s) {
    EXPECT_TRUE(s.ok());
    done = true;
  });
  loop_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(mem[buf], 1);
  EXPECT_EQ(mem[buf + 255], 0);  // 255 + 1 wraps
  // launch overhead (8us) + compute (100us)
  EXPECT_EQ(loop_.now().ns(), 108000);
}

TEST_F(GpuTest, LaunchesSerializeOnEngine) {
  const auto kid = gpu_->load_kernel("sleep", [](PoolBytes&,
                                                 const std::vector<uint64_t>&) {
    return Duration::micros(50);
  });
  std::vector<int64_t> finishes;
  for (int i = 0; i < 3; ++i) {
    gpu_->launch(kid, {}, [&](Status) { finishes.push_back(loop_.now().ns()); });
  }
  loop_.run();
  ASSERT_EQ(finishes.size(), 3u);
  EXPECT_EQ(finishes[0], 58000);
  EXPECT_EQ(finishes[1], 116000);
  EXPECT_EQ(finishes[2], 174000);
  EXPECT_EQ(gpu_->launches(), 3u);
}

TEST_F(GpuTest, UnknownKernelFails) {
  Status got = ok_status();
  gpu_->launch(999, {}, [&](Status s) { got = s; });
  loop_.run();
  EXPECT_EQ(got.error(), ErrorCode::kNotFound);
}

class NvmeTest : public ::testing::Test {
 protected:
  NvmeTest() : nvme_(&loop_) {}

  EventLoop loop_;
  SimNvme nvme_;
};

TEST_F(NvmeTest, WriteThenReadRoundTripsData) {
  std::vector<uint8_t> data(10000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 13);
  }
  bool wrote = false;
  nvme_.write(5000, data, [&](Status s) {
    EXPECT_TRUE(s.ok());
    wrote = true;
  });
  loop_.run();
  ASSERT_TRUE(wrote);
  Result<Payload> got = ErrorCode::kInternal;
  nvme_.read(5000, data.size(), [&](Result<Payload> r) { got = std::move(r); });
  loop_.run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().to_vector(), data);
}

TEST_F(NvmeTest, UnwrittenBlocksReadZero) {
  Result<Payload> got = ErrorCode::kInternal;
  nvme_.read(1 << 20, 4096, [&](Result<Payload> r) { got = std::move(r); });
  loop_.run();
  ASSERT_TRUE(got.ok());
  for (uint8_t b : got.value().bytes()) {
    EXPECT_EQ(b, 0);
  }
}

TEST_F(NvmeTest, RandomReadLatencyCalibration) {
  // ~70us for a 4 KiB random read (Section 6.4: "the NVMe latency dominates (70 usec)").
  bool done = false;
  nvme_.read(0, 4096, [&](Result<Payload>) { done = true; });
  loop_.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(static_cast<double>(loop_.now().ns()) / 1000.0, 70.0, 2.0);
}

TEST_F(NvmeTest, WriteCacheAbsorbsWritesQuickly) {
  bool done = false;
  nvme_.write(0, std::vector<uint8_t>(4096), [&](Status) { done = true; });
  loop_.run();
  EXPECT_TRUE(done);
  EXPECT_LT(loop_.now().ns(), 20000);  // well under a flash read
}

TEST_F(NvmeTest, ChannelsOverlapQueuedIo) {
  // 4 channels: 8 reads take ~2 serial read times, not 8.
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    nvme_.read(static_cast<uint64_t>(i) * 4096, 4096,
               [&](Result<Payload>) { ++done; });
  }
  loop_.run();
  EXPECT_EQ(done, 8);
  const double us = static_cast<double>(loop_.now().ns()) / 1000.0;
  EXPECT_NEAR(us, 2 * 70.0, 5.0);
}

TEST_F(NvmeTest, OutOfRangeRejected) {
  Result<Payload> got = ErrorCode::kInternal;
  nvme_.read(nvme_.capacity() - 100, 4096,
             [&](Result<Payload> r) { got = std::move(r); });
  Status ws = ok_status();
  nvme_.write(nvme_.capacity(), {1}, [&](Status s) { ws = s; });
  loop_.run();
  EXPECT_EQ(got.error(), ErrorCode::kOutOfRange);
  EXPECT_EQ(ws.error(), ErrorCode::kOutOfRange);
}

TEST_F(NvmeTest, PeekPokeBypassTiming) {
  nvme_.poke(123, {7, 8, 9});
  EXPECT_EQ(nvme_.peek(124, 1)[0], 8);
  EXPECT_EQ(loop_.now().ns(), 0);
}

TEST_F(NvmeTest, LargeReadStreamsAtBandwidth) {
  // 1 MiB read: latency + ~1 MiB / 3 B/ns ~ 68us + 350us.
  bool done = false;
  nvme_.write(0, std::vector<uint8_t>(1 << 20, 1), [&](Status) {});
  loop_.run();
  const Time start = loop_.now();
  nvme_.read(0, 1 << 20, [&](Result<Payload>) { done = true; });
  loop_.run();
  EXPECT_TRUE(done);
  const double us = (loop_.now() - start).to_us();
  EXPECT_NEAR(us, 68.0 + 1048576.0 / 3.0 / 1000.0, 10.0);
}

}  // namespace
}  // namespace fractos
