// Integration tests for the disaggregated services: GPU adaptor, block-device adaptor, and
// the two-tier FS (FS vs DAX modes), on a 3-node cluster like the paper's testbed.

#include <gtest/gtest.h>

#include <memory>

#include "src/services/block_adaptor.h"
#include "src/services/fs.h"
#include "src/services/gpu_adaptor.h"

namespace fractos {
namespace {

std::vector<uint8_t> pattern(size_t n, uint8_t seed = 1) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return v;
}

class GpuServiceTest : public ::testing::Test {
 protected:
  GpuServiceTest() {
    client_node_ = sys_.add_node("client");
    gpu_node_ = sys_.add_node("gpu");
    cc_ = &sys_.add_controller(client_node_, Loc::kHost);
    cg_ = &sys_.add_controller(gpu_node_, Loc::kHost);
    gpu_ = std::make_unique<SimGpu>(&sys_.net(), gpu_node_);
    adaptor_ = std::make_unique<GpuAdaptor>(&sys_, *cg_, gpu_.get());
    adaptor_->register_kernel("add_k", [](PoolBytes& mem,
                                          const std::vector<uint64_t>& args) {
      // args: in_addr, out_addr, count, k
      const uint64_t in = args[0], out = args[1], n = args[2], k = args[3];
      for (uint64_t i = 0; i < n; ++i) {
        mem[out + i] = static_cast<uint8_t>(mem[in + i] + k);
      }
      return Duration::micros(50);
    });
    client_ = &sys_.spawn("client", client_node_, *cc_);
    init_ep_ = sys_.bootstrap_grant(adaptor_->process(), adaptor_->init_endpoint(), *client_)
                   .value();
  }

  System sys_;
  uint32_t client_node_ = 0, gpu_node_ = 0;
  Controller* cc_ = nullptr;
  Controller* cg_ = nullptr;
  std::unique_ptr<SimGpu> gpu_;
  std::unique_ptr<GpuAdaptor> adaptor_;
  Process* client_ = nullptr;
  CapId init_ep_ = kInvalidCap;
};

TEST_F(GpuServiceTest, EndToEndKernelRunWithCopyBack) {
  auto session = sys_.await_ok(GpuClient::init(*client_, init_ep_));
  auto in_buf = sys_.await_ok(GpuClient::alloc(*client_, session, 1024));
  auto out_buf = sys_.await_ok(GpuClient::alloc(*client_, session, 1024));
  const CapId kernel = sys_.await_ok(GpuClient::load(*client_, session, "add_k"));

  // Upload input from client memory to GPU memory.
  const auto input = pattern(1024, 3);
  const uint64_t src_addr = client_->alloc(1024);
  client_->write_mem(src_addr, input);
  const CapId src = sys_.await_ok(client_->memory_create(src_addr, 1024, Perms::kRead));
  ASSERT_TRUE(sys_.await(client_->memory_copy(src, in_buf.mem)).ok());

  // Result landing buffer in client memory; the adaptor copies it back after the kernel.
  const uint64_t res_addr = client_->alloc(1024);
  const CapId res = sys_.await_ok(client_->memory_create(res_addr, 1024, Perms::kReadWrite));

  ASSERT_TRUE(sys_.await(GpuClient::run(*client_, kernel,
                                        {in_buf.device_addr, out_buf.device_addr, 1024, 5},
                                        out_buf.mem, res))
                  .ok());
  const auto got = client_->read_mem(res_addr, 1024);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], static_cast<uint8_t>(input[i] + 5)) << "at " << i;
  }
  EXPECT_EQ(gpu_->launches(), 1u);
}

TEST_F(GpuServiceTest, UnknownKernelNameFailsLoad) {
  auto session = sys_.await_ok(GpuClient::init(*client_, init_ep_));
  auto r = sys_.await(GpuClient::load(*client_, session, "not-a-kernel"));
  EXPECT_EQ(r.error(), ErrorCode::kNotFound);
}

TEST_F(GpuServiceTest, AllocationExhaustionReported) {
  auto session = sys_.await_ok(GpuClient::init(*client_, init_ep_));
  auto r = sys_.await(GpuClient::alloc(*client_, session, 1ull << 40));
  EXPECT_EQ(r.error(), ErrorCode::kResourceExhausted);
}

TEST_F(GpuServiceTest, CleanupRevokesEverything) {
  auto session = sys_.await_ok(GpuClient::init(*client_, init_ep_));
  auto buf = sys_.await_ok(GpuClient::alloc(*client_, session, 256));
  const CapId kernel = sys_.await_ok(GpuClient::load(*client_, session, "add_k"));
  ASSERT_TRUE(sys_.await(GpuClient::cleanup(*client_, session)).ok());
  sys_.loop().run();

  // The delegated buffer capability is dead: copies into it fail.
  const CapId local = sys_.await_ok(client_->memory_create(client_->alloc(256), 256,
                                                           Perms::kReadWrite));
  EXPECT_FALSE(sys_.await(client_->memory_copy(local, buf.mem)).ok());
  // The kernel endpoint is dead too.
  EXPECT_FALSE(sys_.await(GpuClient::run(*client_, kernel, {0, 0, 0, 0})).ok());
  EXPECT_EQ(adaptor_->num_contexts(), 0u);
}

TEST_F(GpuServiceTest, ConcurrentClientsSerializeOnEngine) {
  Process& client2 = sys_.spawn("client2", client_node_, *cc_);
  const CapId init2 =
      sys_.bootstrap_grant(adaptor_->process(), adaptor_->init_endpoint(), client2).value();

  auto s1 = sys_.await_ok(GpuClient::init(*client_, init_ep_));
  auto s2 = sys_.await_ok(GpuClient::init(client2, init2));
  const CapId k1 = sys_.await_ok(GpuClient::load(*client_, s1, "add_k"));
  const CapId k2 = sys_.await_ok(GpuClient::load(client2, s2, "add_k"));
  auto b1 = sys_.await_ok(GpuClient::alloc(*client_, s1, 64));
  auto b2 = sys_.await_ok(GpuClient::alloc(client2, s2, 64));

  auto f1 = GpuClient::run(*client_, k1, {b1.device_addr, b1.device_addr, 64, 1});
  auto f2 = GpuClient::run(client2, k2, {b2.device_addr, b2.device_addr, 64, 1});
  EXPECT_TRUE(sys_.await(std::move(f1)).ok());
  EXPECT_TRUE(sys_.await(std::move(f2)).ok());
  EXPECT_EQ(gpu_->launches(), 2u);
  // Engine busy time = 2 kernels, fully serialized.
  EXPECT_EQ(gpu_->busy_time().ns(), 2 * (50000 + 8000));
}

class BlockServiceTest : public ::testing::Test {
 protected:
  BlockServiceTest() {
    client_node_ = sys_.add_node("client");
    storage_node_ = sys_.add_node("storage");
    cc_ = &sys_.add_controller(client_node_, Loc::kHost);
    cs_ = &sys_.add_controller(storage_node_, Loc::kHost);
    nvme_ = std::make_unique<SimNvme>(&sys_.loop());
    adaptor_ = std::make_unique<BlockAdaptor>(&sys_, storage_node_, *cs_, nvme_.get());
    client_ = &sys_.spawn("client", client_node_, *cc_);
    mgmt_ =
        sys_.bootstrap_grant(adaptor_->process(), adaptor_->mgmt_endpoint(), *client_).value();
  }

  System sys_;
  uint32_t client_node_ = 0, storage_node_ = 0;
  Controller* cc_ = nullptr;
  Controller* cs_ = nullptr;
  std::unique_ptr<SimNvme> nvme_;
  std::unique_ptr<BlockAdaptor> adaptor_;
  Process* client_ = nullptr;
  CapId mgmt_ = kInvalidCap;
};

TEST_F(BlockServiceTest, VolumeWriteReadRoundTrip) {
  auto vol = sys_.await_ok(BlockClient::create_volume(*client_, mgmt_, 1 << 20));
  const auto data = pattern(8192, 11);
  const uint64_t buf = client_->alloc(8192);
  client_->write_mem(buf, data);
  const CapId mem = sys_.await_ok(client_->memory_create(buf, 8192, Perms::kReadWrite));

  ASSERT_TRUE(sys_.await(BlockClient::write(*client_, vol, 4096, 8192, mem)).ok());
  // Clear the client buffer, then read back.
  client_->write_mem(buf, std::vector<uint8_t>(8192, 0));
  ASSERT_TRUE(sys_.await(BlockClient::read(*client_, vol, 4096, 8192, mem)).ok());
  EXPECT_EQ(client_->read_mem(buf, 8192), data);
  // The device really holds the bytes (volume 0 starts at device offset 0).
  EXPECT_EQ(nvme_->peek(4096, 8192), data);
}

TEST_F(BlockServiceTest, OutOfRangeIoFailsThroughErrorContinuation) {
  auto vol = sys_.await_ok(BlockClient::create_volume(*client_, mgmt_, 64 << 10));
  const CapId mem = sys_.await_ok(client_->memory_create(client_->alloc(4096), 4096,
                                                         Perms::kReadWrite));
  EXPECT_EQ(sys_.await(BlockClient::read(*client_, vol, (64 << 10) - 100, 4096, mem)).error(),
            ErrorCode::kInvalidArgument);
}

TEST_F(BlockServiceTest, WrappingOffsetCannotReachAnotherVolume) {
  auto a = sys_.await_ok(BlockClient::create_volume(*client_, mgmt_, 1 << 20));
  auto b = sys_.await_ok(BlockClient::create_volume(*client_, mgmt_, 1 << 20));
  const uint64_t addr = client_->alloc(8192);
  client_->write_mem(addr, pattern(8192, 3));
  const CapId buf = sys_.await_ok(client_->memory_create(addr, 8192, Perms::kReadWrite));
  ASSERT_TRUE(sys_.await(BlockClient::write(*client_, a, (1 << 20) - 8192, 8192, buf)).ok());
  client_->write_mem(addr, std::vector<uint8_t>(8192, 0));
  // offset + size wraps past 2^64 to 4096, inside b; b's base plus the offset lands in a.
  EXPECT_EQ(sys_.await(BlockClient::read(*client_, b, ~0ull - 4095, 8192, buf)).error(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(client_->read_mem(addr, 8192), std::vector<uint8_t>(8192, 0));
}

// A size near 2^64 rounds up to 0 unless it is checked first; such a volume would share
// the next volume's blocks.
TEST_F(BlockServiceTest, WrappingSizeIsRefused) {
  EXPECT_EQ(sys_.await(BlockClient::create_volume(*client_, mgmt_, ~0ull)).error(),
            ErrorCode::kResourceExhausted);
  auto a = sys_.await_ok(BlockClient::create_volume(*client_, mgmt_, 64 << 10));
  auto b = sys_.await_ok(BlockClient::create_volume(*client_, mgmt_, 64 << 10));
  const uint64_t addr = client_->alloc(4096);
  const CapId buf = sys_.await_ok(client_->memory_create(addr, 4096, Perms::kReadWrite));
  client_->write_mem(addr, pattern(4096, 1));
  ASSERT_TRUE(sys_.await(BlockClient::write(*client_, a, 0, 4096, buf)).ok());
  client_->write_mem(addr, pattern(4096, 2));
  ASSERT_TRUE(sys_.await(BlockClient::write(*client_, b, 0, 4096, buf)).ok());
  ASSERT_TRUE(sys_.await(BlockClient::read(*client_, a, 0, 4096, buf)).ok());
  EXPECT_EQ(client_->read_mem(addr, 4096), pattern(4096, 1));
}

TEST_F(BlockServiceTest, DeleteVolumeRevokesEndpoints) {
  auto vol = sys_.await_ok(BlockClient::create_volume(*client_, mgmt_, 64 << 10));
  const CapId mem = sys_.await_ok(client_->memory_create(client_->alloc(4096), 4096,
                                                         Perms::kReadWrite));
  ASSERT_TRUE(sys_.await(BlockClient::read(*client_, vol, 0, 4096, mem)).ok());
  ASSERT_TRUE(sys_.await(BlockClient::destroy(*client_, vol)).ok());
  sys_.loop().run();
  // The freed blocks are immediately unreachable (use-after-free prevention, Section 3.5):
  // the client's capability was purged by the cleanup broadcast, or the invoke is refused.
  auto r = sys_.await(BlockClient::read(*client_, vol, 0, 4096, mem));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(adaptor_->num_volumes(), 0u);
}

// A write still streaming when its volume is deleted keeps the volume's extent until its
// last sub-chunk is on the device: a volume created meanwhile cannot get those blocks, and
// one created afterwards on them reads zeros, not the old tenant's bytes.
TEST_F(BlockServiceTest, WriteInFlightAcrossDeleteNeverLandsInTheNextVolume) {
  SimNvme::Params np;
  np.capacity_bytes = 1 << 20;  // room for one volume
  SimNvme nvme(&sys_.loop(), np);
  BlockAdaptor adaptor(&sys_, storage_node_, *cs_, &nvme);
  const CapId mgmt =
      sys_.bootstrap_grant(adaptor.process(), adaptor.mgmt_endpoint(), *client_).value();
  auto a = sys_.await_ok(BlockClient::create_volume(*client_, mgmt, 1 << 20));
  const uint64_t addr = client_->alloc(1 << 20);
  client_->write_mem(addr, pattern(1 << 20, 5));
  const CapId buf = sys_.await_ok(client_->memory_create(addr, 1 << 20, Perms::kReadWrite));

  Future<Status> w = BlockClient::write(*client_, a, 0, 1 << 20, buf);
  ASSERT_TRUE(sys_.loop().run_until([&]() { return nvme.writes_completed() >= 1; }));
  ASSERT_TRUE(sys_.await(BlockClient::destroy(*client_, a)).ok());
  ASSERT_FALSE(w.ready());  // still pumping sub-chunks into a's blocks
  EXPECT_EQ(sys_.await(BlockClient::create_volume(*client_, mgmt, 1 << 20)).error(),
            ErrorCode::kResourceExhausted);

  (void)sys_.await(std::move(w));
  sys_.loop().run();
  auto c = sys_.await(BlockClient::create_volume(*client_, mgmt, 1 << 20));
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(sys_.await(BlockClient::read(*client_, c.value(), 0, 1 << 20, buf)).ok());
  EXPECT_EQ(client_->read_mem(addr, 1 << 20), std::vector<uint8_t>(1 << 20, 0));
}

TEST_F(BlockServiceTest, ManyConcurrentIosQueueOnSlots) {
  auto vol = sys_.await_ok(BlockClient::create_volume(*client_, mgmt_, 16 << 20));
  std::vector<Future<Status>> ios;
  std::vector<CapId> mems;
  for (int i = 0; i < 24; ++i) {  // 3x the staging slots
    const CapId mem = sys_.await_ok(client_->memory_create(client_->alloc(4096), 4096,
                                                           Perms::kReadWrite));
    mems.push_back(mem);
  }
  for (int i = 0; i < 24; ++i) {
    ios.push_back(BlockClient::read(*client_, vol, static_cast<uint64_t>(i) * 4096, 4096,
                                    mems[static_cast<size_t>(i)]));
  }
  for (auto& f : ios) {
    EXPECT_TRUE(sys_.await(std::move(f)).ok());
  }
}

TEST_F(BlockServiceTest, ChainedContinuationRunsDecentralized) {
  // The Fig. 3 flow: the client pre-arranges "read block -> invoke next stage" and the SSD
  // adaptor drives the next stage directly, without the client in the loop.
  auto vol = sys_.await_ok(BlockClient::create_volume(*client_, mgmt_, 64 << 10));
  nvme_->poke(0, pattern(4096, 42));

  // Stage 2 lives on the client node and checks it got invoked.
  bool stage2_ran = false;
  const CapId stage2 = sys_.await_ok(client_->serve({}, [&](Process::Received) {
    stage2_ran = true;
  }));
  const uint64_t buf = client_->alloc(4096);
  const CapId mem = sys_.await_ok(client_->memory_create(buf, 4096, Perms::kReadWrite));
  ASSERT_TRUE(sys_.await(client_->request_invoke(vol.read_ep, Process::Args{}
                                                                  .imm_u64(0, 0)
                                                                  .imm_u64(8, 4096)
                                                                  .cap(mem)
                                                                  .cap(stage2)))
                  .ok());
  ASSERT_TRUE(sys_.loop().run_until([&]() { return stage2_ran; }));
  EXPECT_EQ(client_->read_mem(buf, 4096), pattern(4096, 42));
}

class FsServiceTest : public ::testing::Test {
 protected:
  FsServiceTest() {
    client_node_ = sys_.add_node("client");
    fs_node_ = sys_.add_node("fs");
    storage_node_ = sys_.add_node("storage");
    cc_ = &sys_.add_controller(client_node_, Loc::kHost);
    cf_ = &sys_.add_controller(fs_node_, Loc::kHost);
    cs_ = &sys_.add_controller(storage_node_, Loc::kHost);
    nvme_ = std::make_unique<SimNvme>(&sys_.loop());
    block_ = std::make_unique<BlockAdaptor>(&sys_, storage_node_, *cs_, nvme_.get());
    FsService::Params p;
    p.extent_bytes = 64 << 10;  // small extents so tests exercise spanning cheaply
    fs_ = FsService::bootstrap(&sys_, fs_node_, *cf_, block_->process(),
                               block_->mgmt_endpoint(), p);
    client_ = &sys_.spawn("client", client_node_, *cc_);
    create_ep_ = sys_.bootstrap_grant(fs_->process(), fs_->create_endpoint(), *client_).value();
    open_ep_ = sys_.bootstrap_grant(fs_->process(), fs_->open_endpoint(), *client_).value();
    unlink_ep_ = sys_.bootstrap_grant(fs_->process(), fs_->unlink_endpoint(), *client_).value();
  }

  CapId make_buffer(uint64_t size, const std::vector<uint8_t>& content = {}) {
    const uint64_t addr = client_->alloc(size);
    last_addr_ = addr;
    if (!content.empty()) {
      client_->write_mem(addr, content);
    }
    return sys_.await_ok(client_->memory_create(addr, size, Perms::kReadWrite));
  }

  System sys_;
  uint32_t client_node_ = 0, fs_node_ = 0, storage_node_ = 0;
  Controller* cc_ = nullptr;
  Controller* cf_ = nullptr;
  Controller* cs_ = nullptr;
  std::unique_ptr<SimNvme> nvme_;
  std::unique_ptr<BlockAdaptor> block_;
  std::unique_ptr<FsService> fs_;
  Process* client_ = nullptr;
  CapId create_ep_ = kInvalidCap, open_ep_ = kInvalidCap, unlink_ep_ = kInvalidCap;
  uint64_t last_addr_ = 0;
};

TEST_F(FsServiceTest, FsModeWriteReadRoundTrip) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "a.bin", 128 << 10)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_ep_, "a.bin", /*rw=*/true, /*dax=*/false));
  EXPECT_EQ(f.size, 128u << 10);
  ASSERT_EQ(f.read_eps.size(), 1u);
  ASSERT_EQ(f.write_eps.size(), 1u);

  const auto data = pattern(32 << 10, 7);
  const CapId buf = make_buffer(32 << 10, data);
  const uint64_t addr = last_addr_;
  ASSERT_TRUE(sys_.await(FsClient::write(*client_, f, 4096, 32 << 10, buf)).ok());
  client_->write_mem(addr, std::vector<uint8_t>(32 << 10, 0));
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, f, 4096, 32 << 10, buf)).ok());
  EXPECT_EQ(client_->read_mem(addr, 32 << 10), data);
}

TEST_F(FsServiceTest, FsModeIoSpansExtents) {
  // 64 KiB extents; write 100 KiB crossing the extent boundary at 64 KiB.
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "span.bin", 256 << 10)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_ep_, "span.bin", true, false));
  const uint64_t size = 100 << 10;
  const auto data = pattern(size, 99);
  const CapId buf = make_buffer(size, data);
  const uint64_t addr = last_addr_;
  ASSERT_TRUE(sys_.await(FsClient::write(*client_, f, 30 << 10, size, buf)).ok());
  client_->write_mem(addr, std::vector<uint8_t>(size, 0));
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, f, 30 << 10, size, buf)).ok());
  EXPECT_EQ(client_->read_mem(addr, size), data);
}

TEST_F(FsServiceTest, DaxModeReadsDirectlyWithIntegrity) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "d.bin", 128 << 10)).ok());
  // Seed via FS mode.
  auto fw = sys_.await_ok(FsClient::open(*client_, open_ep_, "d.bin", true, false));
  const auto data = pattern(64 << 10, 21);
  const CapId wbuf = make_buffer(64 << 10, data);
  ASSERT_TRUE(sys_.await(FsClient::write(*client_, fw, 0, 64 << 10, wbuf)).ok());
  ASSERT_TRUE(sys_.await(FsClient::close(*client_, fw)).ok());

  auto fd = sys_.await_ok(FsClient::open(*client_, open_ep_, "d.bin", false, /*dax=*/true));
  EXPECT_EQ(fd.read_eps.size(), 2u);   // one per extent
  EXPECT_TRUE(fd.write_eps.empty());   // read-only open: no write authority (security)
  const CapId rbuf = make_buffer(64 << 10);
  const uint64_t addr = last_addr_;
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, fd, 0, 64 << 10, rbuf)).ok());
  EXPECT_EQ(client_->read_mem(addr, 64 << 10), data);
}

TEST_F(FsServiceTest, DaxReadSpanningExtents) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "sp.bin", 192 << 10)).ok());
  auto fw = sys_.await_ok(FsClient::open(*client_, open_ep_, "sp.bin", true, false));
  const uint64_t size = 120 << 10;  // crosses 64 KiB boundary
  const auto data = pattern(size, 77);
  const CapId wbuf = make_buffer(size, data);
  ASSERT_TRUE(sys_.await(FsClient::write(*client_, fw, 20 << 10, size, wbuf)).ok());

  auto fd = sys_.await_ok(FsClient::open(*client_, open_ep_, "sp.bin", true, true));
  EXPECT_EQ(fd.read_eps.size(), 3u);
  EXPECT_EQ(fd.write_eps.size(), 3u);
  const CapId rbuf = make_buffer(size);
  const uint64_t addr = last_addr_;
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, fd, 20 << 10, size, rbuf)).ok());
  EXPECT_EQ(client_->read_mem(addr, size), data);
}

TEST_F(FsServiceTest, DaxWriteRoundTrip) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "w.bin", 64 << 10)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_ep_, "w.bin", true, true));
  const auto data = pattern(16 << 10, 33);
  const CapId buf = make_buffer(16 << 10, data);
  const uint64_t addr = last_addr_;
  ASSERT_TRUE(sys_.await(FsClient::write(*client_, f, 8 << 10, 16 << 10, buf)).ok());
  client_->write_mem(addr, std::vector<uint8_t>(16 << 10, 0));
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, f, 8 << 10, 16 << 10, buf)).ok());
  EXPECT_EQ(client_->read_mem(addr, 16 << 10), data);
}

TEST_F(FsServiceTest, ReadOnlyFsModeRejectsWrites) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "ro.bin", 64 << 10)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_ep_, "ro.bin", /*rw=*/false, false));
  EXPECT_TRUE(f.write_eps.empty());
  const CapId buf = make_buffer(4096, pattern(4096));
  EXPECT_EQ(sys_.await(FsClient::write(*client_, f, 0, 4096, buf)).error(),
            ErrorCode::kInvalidArgument);  // no write endpoint delivered at all
}

TEST_F(FsServiceTest, OpenMissingFileFails) {
  auto r = sys_.await(FsClient::open(*client_, open_ep_, "ghost", false, false));
  EXPECT_EQ(r.error(), ErrorCode::kNotFound);
}

TEST_F(FsServiceTest, CreateDuplicateFails) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "dup", 4096)).ok());
  EXPECT_EQ(sys_.await(FsClient::create(*client_, create_ep_, "dup", 4096)).error(),
            ErrorCode::kAlreadyExists);
}

TEST_F(FsServiceTest, CloseRevokesDaxAuthority) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "c.bin", 64 << 10)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_ep_, "c.bin", false, true));
  const CapId buf = make_buffer(4096);
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, f, 0, 4096, buf)).ok());
  ASSERT_TRUE(sys_.await(FsClient::close(*client_, f)).ok());
  sys_.loop().run();
  // The cached extent children were revoked with the last close.
  EXPECT_FALSE(sys_.await(FsClient::read(*client_, f, 0, 4096, buf)).ok());
}

TEST_F(FsServiceTest, DaxChildrenSharedAcrossOpensAndRefcounted) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "s.bin", 64 << 10)).ok());
  auto f1 = sys_.await_ok(FsClient::open(*client_, open_ep_, "s.bin", false, true));
  auto f2 = sys_.await_ok(FsClient::open(*client_, open_ep_, "s.bin", false, true));
  const CapId buf = make_buffer(4096);
  ASSERT_TRUE(sys_.await(FsClient::close(*client_, f1)).ok());
  sys_.loop().run();
  // The second open still works: the children survive until the last close.
  EXPECT_TRUE(sys_.await(FsClient::read(*client_, f2, 0, 4096, buf)).ok());
  ASSERT_TRUE(sys_.await(FsClient::close(*client_, f2)).ok());
  sys_.loop().run();
  EXPECT_FALSE(sys_.await(FsClient::read(*client_, f2, 0, 4096, buf)).ok());
}

TEST_F(FsServiceTest, UnlinkKillsOutstandingDaxCapabilities) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "u.bin", 64 << 10)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_ep_, "u.bin", false, true));
  const CapId buf = make_buffer(4096);
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, f, 0, 4096, buf)).ok());
  ASSERT_TRUE(sys_.await(FsClient::unlink(*client_, unlink_ep_, "u.bin")).ok());
  sys_.loop().run();
  // The block adaptor revoked the per-volume endpoints; the DAX children died with them.
  EXPECT_FALSE(sys_.await(FsClient::read(*client_, f, 0, 4096, buf)).ok());
  EXPECT_EQ(fs_->num_files(), 0u);
}

TEST_F(FsServiceTest, DaxHalvesCrossNodeDataTraffic) {
  // The quantitative heart of Fig. 4/10: FS mode moves data over the network twice
  // (SSD node -> FS node -> client), DAX once (SSD node -> client).
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "t.bin", 64 << 10)).ok());
  auto fw = sys_.await_ok(FsClient::open(*client_, open_ep_, "t.bin", true, false));
  const uint64_t size = 32 << 10;
  const CapId buf = make_buffer(size, pattern(size));
  ASSERT_TRUE(sys_.await(FsClient::write(*client_, fw, 0, size, buf)).ok());

  sys_.net().reset_counters();
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, fw, 0, size, buf)).ok());
  const uint64_t fs_bytes = sys_.net().counters().cross_bytes[1];

  auto fd = sys_.await_ok(FsClient::open(*client_, open_ep_, "t.bin", false, true));
  sys_.net().reset_counters();
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, fd, 0, size, buf)).ok());
  const uint64_t dax_bytes = sys_.net().counters().cross_bytes[1];

  EXPECT_NEAR(static_cast<double>(fs_bytes) / static_cast<double>(dax_bytes), 2.0, 0.2);
}

}  // namespace
}  // namespace fractos
