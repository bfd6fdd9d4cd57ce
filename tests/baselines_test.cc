// Tests for the baseline stacks: page cache, NVMe-oF, NFS, rCUDA, the baseline FS, and the
// three pipeline drive modes of Fig. 8.

#include <gtest/gtest.h>

#include <memory>

#include "src/baselines/baseline_fs.h"
#include "src/baselines/nfs.h"
#include "src/baselines/nvmeof.h"
#include "src/baselines/page_cache.h"
#include "src/baselines/pipeline.h"
#include "src/baselines/rcuda.h"
#include "src/services/fs.h"
#include "src/sim/rng.h"

namespace fractos {
namespace {

std::vector<uint8_t> pattern(size_t n, uint8_t seed = 1) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return v;
}

class PageCacheTest : public ::testing::Test {
 protected:
  PageCacheTest() : nvme_(&loop_), dev_(&nvme_), cache_(&loop_, &dev_) {}

  Result<std::vector<uint8_t>> read_sync(BlockDevice& d, uint64_t off, uint64_t size) {
    Result<std::vector<uint8_t>> out = ErrorCode::kInternal;
    bool done = false;
    d.read(off, size, [&](Result<Payload> r) {
      if (r.ok()) {
        out = r.value().to_vector();
      } else {
        out = r.error();
      }
      done = true;
    });
    loop_.run();
    EXPECT_TRUE(done);
    return out;
  }

  EventLoop loop_;
  SimNvme nvme_;
  LocalNvmeDevice dev_;
  PageCache cache_;
};

TEST_F(PageCacheTest, MissThenHitServesSameData) {
  nvme_.poke(8192, pattern(4096, 5));
  auto first = read_sync(cache_, 8192, 4096);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache_.misses(), 1u);
  const Time after_miss = loop_.now();
  auto second = read_sync(cache_, 8192, 4096);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(cache_.hits(), 1u);
  // The hit is orders of magnitude faster than the 70us flash read.
  EXPECT_LT((loop_.now() - after_miss).to_us(), 5.0);
}

TEST_F(PageCacheTest, SequentialReadsTriggerReadahead) {
  // Sequential 4 KiB reads: after the first miss, the read-ahead window prefetches, so
  // subsequent reads hit.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(read_sync(cache_, static_cast<uint64_t>(i) * 4096, 4096).ok());
  }
  EXPECT_GE(cache_.readahead_fetches(), 1u);
  EXPECT_GE(cache_.hits(), 25u);  // the vast majority hit
  EXPECT_LE(cache_.misses(), 3u);
}

TEST_F(PageCacheTest, RandomReadsMostlyMiss) {
  Rng rng(5);
  for (int i = 0; i < 16; ++i) {
    const uint64_t off = rng.next_below(1 << 20) * 4096;
    ASSERT_TRUE(read_sync(cache_, off, 4096).ok());
  }
  EXPECT_GE(cache_.misses(), 14u);  // "the Linux cache ... is ineffective in this case"
}

TEST_F(PageCacheTest, WritesAbsorbedAndReadBack) {
  const auto data = pattern(16384, 9);
  bool done = false;
  const Time start = loop_.now();
  cache_.write(4096, data, [&](Status s) {
    EXPECT_TRUE(s.ok());
    done = true;
  });
  loop_.run_until([&]() { return done; });
  // Absorbed: completes at memcpy speed, far below the device write latency.
  EXPECT_LT((loop_.now() - start).to_us(), 10.0);
  auto r = read_sync(cache_, 4096, 16384);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), data);
  loop_.run();  // drain the background write-back
  EXPECT_EQ(nvme_.peek(4096, 16384), data);
}

// off + size wraps past 2^64 to 10: neither call may reach the device or the cache.
TEST_F(PageCacheTest, WrappingRangeIsOutOfRange) {
  const uint64_t off = ~0ull - 9;
  EXPECT_EQ(read_sync(cache_, off, 20).error(), ErrorCode::kOutOfRange);
  Status wrote = ErrorCode::kInternal;
  cache_.write(off, pattern(20), [&](Status s) { wrote = s; });
  loop_.run();
  EXPECT_EQ(wrote.error(), ErrorCode::kOutOfRange);
  EXPECT_EQ(nvme_.peek(0, 20), std::vector<uint8_t>(20, 0));
}

TEST_F(PageCacheTest, LruEvictionBoundsMemory) {
  PageCache::Params p;
  p.capacity_pages = 8;
  PageCache small(&loop_, &dev_, p);
  for (int i = 0; i < 64; ++i) {
    bool done = false;
    small.read(static_cast<uint64_t>(i) * 65536, 4096,
               [&](Result<Payload>) { done = true; });
    loop_.run();
    ASSERT_TRUE(done);
  }
  EXPECT_LE(small.cached_pages(), 8u);
}

class NvmeofTest : public ::testing::Test {
 protected:
  NvmeofTest() : net_(&loop_), nvme_(&loop_) {
    fs_node_ = net_.add_node("fs");
    storage_node_ = net_.add_node("storage");
    target_ = std::make_unique<NvmeofTarget>(&net_, storage_node_, &nvme_);
    initiator_ = std::make_unique<NvmeofInitiator>(&net_, fs_node_, target_.get());
  }

  EventLoop loop_;
  Network net_;
  SimNvme nvme_;
  uint32_t fs_node_ = 0, storage_node_ = 0;
  std::unique_ptr<NvmeofTarget> target_;
  std::unique_ptr<NvmeofInitiator> initiator_;
};

TEST_F(NvmeofTest, RemoteReadWriteRoundTrip) {
  const auto data = pattern(8192, 3);
  Status ws = ErrorCode::kInternal;
  initiator_->write(4096, data, [&](Status s) { ws = s; });
  loop_.run();
  ASSERT_TRUE(ws.ok());
  Result<Payload> r = ErrorCode::kInternal;
  initiator_->read(4096, 8192, [&](Result<Payload> rr) { r = std::move(rr); });
  loop_.run();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().to_vector(), data);
}

TEST_F(NvmeofTest, ReadLatencyIsRttPlusDevice) {
  Result<Payload> r = ErrorCode::kInternal;
  const Time start = loop_.now();
  initiator_->read(0, 4096, [&](Result<Payload> rr) { r = std::move(rr); });
  loop_.run();
  ASSERT_TRUE(r.ok());
  const double us = (loop_.now() - start).to_us();
  // ~ 2 * 1.65us wire + 2us target + ~69us device + ~3.3us data serialization.
  EXPECT_NEAR(us, 78.0, 4.0);
}

class NfsTest : public ::testing::Test {
 protected:
  NfsTest() : net_(&loop_), nvme_(&loop_), dev_(&nvme_), cache_(&loop_, &dev_) {
    frontend_ = net_.add_node("frontend");
    fs_node_ = net_.add_node("fs");
    server_ = std::make_unique<NfsServer>(&net_, fs_node_, &cache_);
    client_ = std::make_unique<NfsClient>(&net_, frontend_, server_.get());
  }

  template <typename T>
  T await(Future<T> f) {
    loop_.run_until([&]() { return f.ready(); });
    return f.take();
  }

  EventLoop loop_;
  Network net_;
  SimNvme nvme_;
  LocalNvmeDevice dev_;
  PageCache cache_;
  uint32_t frontend_ = 0, fs_node_ = 0;
  std::unique_ptr<NfsServer> server_;
  std::unique_ptr<NfsClient> client_;
};

TEST_F(NfsTest, OpenReadWriteRoundTrip) {
  ASSERT_TRUE(server_->create_file("f.bin", 64 << 10).ok());
  auto fh = await(client_->open("f.bin"));
  ASSERT_TRUE(fh.ok());
  EXPECT_EQ(fh.value().size, 64u << 10);
  const auto data = pattern(16 << 10, 7);
  ASSERT_TRUE(await(client_->write(fh.value(), 4096, data)).ok());
  auto r = await(client_->read(fh.value(), 4096, 16 << 10));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), data);
}

TEST_F(NfsTest, MissingFileFailsOpen) {
  auto fh = await(client_->open("ghost"));
  EXPECT_FALSE(fh.ok());
}

TEST_F(NfsTest, OutOfRangeReadFails) {
  ASSERT_TRUE(server_->create_file("small", 4096).ok());
  auto fh = await(client_->open("small"));
  auto r = await(client_->read(fh.value(), 4000, 4096));
  EXPECT_FALSE(r.ok());
}

class RcudaTest : public ::testing::Test {
 protected:
  RcudaTest() : net_(&loop_) {
    client_node_ = net_.add_node("client");
    gpu_node_ = net_.add_node("gpu");
    gpu_ = std::make_unique<SimGpu>(&net_, gpu_node_);
    daemon_ = std::make_unique<RcudaDaemon>(&net_, gpu_.get());
    daemon_->register_kernel("inc", [](PoolBytes& mem,
                                       const std::vector<uint64_t>& args) {
      for (uint64_t i = 0; i < args[1]; ++i) {
        mem[args[0] + i] = static_cast<uint8_t>(mem[args[0] + i] + 1);
      }
      return Duration::micros(30);
    });
    client_ = std::make_unique<RcudaClient>(&net_, client_node_, daemon_.get());
  }

  template <typename T>
  T await(Future<T> f) {
    loop_.run_until([&]() { return f.ready(); });
    return f.take();
  }

  EventLoop loop_;
  Network net_;
  uint32_t client_node_ = 0, gpu_node_ = 0;
  std::unique_ptr<SimGpu> gpu_;
  std::unique_ptr<RcudaDaemon> daemon_;
  std::unique_ptr<RcudaClient> client_;
};

TEST_F(RcudaTest, FullKernelCycle) {
  auto addr = await(client_->cu_mem_alloc(1024));
  ASSERT_TRUE(addr.ok());
  auto fn = await(client_->cu_module_get_function("inc"));
  ASSERT_TRUE(fn.ok());
  ASSERT_TRUE(await(client_->cu_memcpy_htod(addr.value(), pattern(1024, 10))).ok());
  ASSERT_TRUE(await(client_->cu_launch_kernel(fn.value(), {addr.value(), 1024})).ok());
  ASSERT_TRUE(await(client_->cu_ctx_synchronize()).ok());
  auto data = await(client_->cu_memcpy_dtoh(addr.value(), 1024));
  ASSERT_TRUE(data.ok());
  const auto expected_base = pattern(1024, 10);
  for (size_t i = 0; i < 1024; ++i) {
    ASSERT_EQ(data.value()[i], static_cast<uint8_t>(expected_base[i] + 1));
  }
  // The whole cycle took 6 driver calls (the multi-round-trip cost FractOS avoids).
  EXPECT_EQ(client_->calls_issued(), 6u);
}

TEST_F(RcudaTest, UnknownFunctionFails) {
  EXPECT_FALSE(await(client_->cu_module_get_function("nope")).ok());
}

TEST_F(RcudaTest, SynchronizeWaitsForKernel) {
  auto fn = await(client_->cu_module_get_function("inc"));
  auto addr = await(client_->cu_mem_alloc(64));
  const Time before = loop_.now();
  ASSERT_TRUE(await(client_->cu_launch_kernel(fn.value(), {addr.value(), 64})).ok());
  const double launch_us = (loop_.now() - before).to_us();
  ASSERT_TRUE(await(client_->cu_ctx_synchronize()).ok());
  const double total_us = (loop_.now() - before).to_us();
  EXPECT_LT(launch_us, 45.0);                  // async launch returns without the kernel
  EXPECT_GT(total_us, launch_us + 25.0);       // sync waited for the 30us kernel
}

class BaselineFsTest : public ::testing::Test {
 protected:
  BaselineFsTest() {
    client_node_ = sys_.add_node("client");
    fs_node_ = sys_.add_node("fs");
    storage_node_ = sys_.add_node("storage");
    cc_ = &sys_.add_controller(client_node_, Loc::kHost);
    cf_ = &sys_.add_controller(fs_node_, Loc::kHost);
    nvme_ = std::make_unique<SimNvme>(&sys_.loop());
    target_ = std::make_unique<NvmeofTarget>(&sys_.net(), storage_node_, nvme_.get());
    initiator_ = std::make_unique<NvmeofInitiator>(&sys_.net(), fs_node_, target_.get());
    cache_ = std::make_unique<PageCache>(&sys_.loop(), initiator_.get());
    fs_ = std::make_unique<BaselineFs>(&sys_, fs_node_, *cf_, cache_.get());
    client_ = &sys_.spawn("client", client_node_, *cc_);
    create_ep_ = sys_.bootstrap_grant(fs_->process(), fs_->create_endpoint(), *client_).value();
    open_ep_ = sys_.bootstrap_grant(fs_->process(), fs_->open_endpoint(), *client_).value();
  }

  System sys_;
  uint32_t client_node_ = 0, fs_node_ = 0, storage_node_ = 0;
  Controller* cc_ = nullptr;
  Controller* cf_ = nullptr;
  std::unique_ptr<SimNvme> nvme_;
  std::unique_ptr<NvmeofTarget> target_;
  std::unique_ptr<NvmeofInitiator> initiator_;
  std::unique_ptr<PageCache> cache_;
  std::unique_ptr<BaselineFs> fs_;
  Process* client_ = nullptr;
  CapId create_ep_ = kInvalidCap, open_ep_ = kInvalidCap;
};

TEST_F(BaselineFsTest, WriteReadRoundTripThroughNvmeof) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "b.bin", 128 << 10)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_ep_, "b.bin", true, false));
  const auto data = pattern(32 << 10, 13);
  const uint64_t addr = client_->alloc(32 << 10);
  client_->write_mem(addr, data);
  const CapId buf = sys_.await_ok(client_->memory_create(addr, 32 << 10, Perms::kReadWrite));
  ASSERT_TRUE(sys_.await(FsClient::write(*client_, f, 0, 32 << 10, buf)).ok());
  client_->write_mem(addr, std::vector<uint8_t>(32 << 10, 0));
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, f, 0, 32 << 10, buf)).ok());
  EXPECT_EQ(client_->read_mem(addr, 32 << 10), data);
}

TEST_F(BaselineFsTest, DaxOpenRejected) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "d.bin", 4096)).ok());
  auto f = sys_.await(FsClient::open(*client_, open_ep_, "d.bin", false, /*dax=*/true));
  EXPECT_FALSE(f.ok());  // a kernel block device cannot delegate sub-range authority
}

TEST_F(BaselineFsTest, CacheAbsorbsRepeatedReads) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "c.bin", 64 << 10)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_ep_, "c.bin", true, false));
  const uint64_t addr = client_->alloc(4096);
  const CapId buf = sys_.await_ok(client_->memory_create(addr, 4096, Perms::kReadWrite));
  ASSERT_TRUE(sys_.await(FsClient::write(*client_, f, 0, 4096, buf)).ok());

  const Time t0 = sys_.loop().now();
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, f, 0, 4096, buf)).ok());
  const double first_us = (sys_.loop().now() - t0).to_us();
  const Time t1 = sys_.loop().now();
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, f, 0, 4096, buf)).ok());
  const double second_us = (sys_.loop().now() - t1).to_us();
  // The write left the pages cached, so both reads avoid the device; the key property is
  // that repeated reads stay fast (no 70us flash read in the path).
  EXPECT_LT(second_us, 55.0);
  EXPECT_LT(first_us, 55.0);
}

class PipelineTest : public ::testing::Test {
 protected:
  static constexpr int kStages = 3;
  static constexpr uint64_t kPayload = 16 << 10;

  PipelineTest() {
    client_node_ = sys_.add_node("client");
    cc_ = &sys_.add_controller(client_node_, Loc::kHost);
    for (int i = 0; i < kStages; ++i) {
      const uint32_t node = sys_.add_node("stage" + std::to_string(i));
      Controller& c = sys_.add_controller(node, Loc::kHost);
      stages_.push_back(std::make_unique<PipelineStage>(&sys_, node, c, 1 << 20,
                                                        Duration::micros(1)));
    }
  }

  PipelineRunner make_runner(PipelineMode mode) {
    std::vector<PipelineStage*> ptrs;
    for (auto& s : stages_) {
      ptrs.push_back(s.get());
    }
    return PipelineRunner(&sys_, client_node_, *cc_, ptrs, kPayload, mode);
  }

  System sys_;
  uint32_t client_node_ = 0;
  Controller* cc_ = nullptr;
  std::vector<std::unique_ptr<PipelineStage>> stages_;
};

TEST_F(PipelineTest, StarProducesCorrectOutput) {
  auto runner = make_runner(PipelineMode::kStar);
  EXPECT_TRUE(sys_.await(runner.run_once()).ok());
  EXPECT_TRUE(sys_.await(runner.run_once()).ok());  // repeatable
}

TEST_F(PipelineTest, FastStarProducesCorrectOutput) {
  auto runner = make_runner(PipelineMode::kFastStar);
  EXPECT_TRUE(sys_.await(runner.run_once()).ok());
}

TEST_F(PipelineTest, ChainProducesCorrectOutput) {
  auto runner = make_runner(PipelineMode::kChain);
  EXPECT_TRUE(sys_.await(runner.run_once()).ok());
  EXPECT_TRUE(sys_.await(runner.run_once()).ok());
}

TEST_F(PipelineTest, LatencyOrderingMatchesFig8) {
  // For I/O-bound pipelines: star > fast-star > chain.
  auto star = make_runner(PipelineMode::kStar);
  auto fast = make_runner(PipelineMode::kFastStar);
  auto chain = make_runner(PipelineMode::kChain);

  auto time_one = [this](PipelineRunner& r) {
    const Time start = sys_.loop().now();
    EXPECT_TRUE(sys_.await(r.run_once()).ok());
    return (sys_.loop().now() - start).to_us();
  };
  const double star_us = time_one(star);
  const double fast_us = time_one(fast);
  const double chain_us = time_one(chain);
  EXPECT_GT(star_us, fast_us);
  EXPECT_GT(fast_us, chain_us);
}

TEST_F(PipelineTest, ChainMovesDataOnceAcrossEachHop) {
  auto star = make_runner(PipelineMode::kStar);
  auto chain = make_runner(PipelineMode::kChain);
  sys_.net().reset_counters();
  ASSERT_TRUE(sys_.await(star.run_once()).ok());
  const uint64_t star_data = sys_.net().counters().cross_bytes[1];
  sys_.net().reset_counters();
  ASSERT_TRUE(sys_.await(chain.run_once()).ok());
  const uint64_t chain_data = sys_.net().counters().cross_bytes[1];
  // Star: 2 transfers per stage (2K); chain: K+1. For K=3: 6 vs 4 -> 1.5x.
  EXPECT_NEAR(static_cast<double>(star_data) / static_cast<double>(chain_data), 1.5, 0.15);
}

}  // namespace
}  // namespace fractos
