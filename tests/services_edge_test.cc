// Edge cases and stress for the service layer: malformed invocations, slot exhaustion under
// concurrency, streaming-internals behaviour, permission boundaries, and multi-tenant
// isolation through the capability system.

#include <gtest/gtest.h>

#include <memory>

#include "src/services/block_adaptor.h"
#include "src/services/fs.h"
#include "src/services/gpu_adaptor.h"
#include "src/sim/rng.h"

namespace fractos {
namespace {

std::vector<uint8_t> random_bytes(uint64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) {
    b = rng.next_byte();
  }
  return v;
}

class ServiceEdgeTest : public ::testing::Test {
 protected:
  ServiceEdgeTest() {
    n0_ = sys_.add_node("client-node");
    n1_ = sys_.add_node("service-node");
    c0_ = &sys_.add_controller(n0_, Loc::kHost);
    c1_ = &sys_.add_controller(n1_, Loc::kHost);
  }

  System sys_;
  uint32_t n0_ = 0, n1_ = 0;
  Controller *c0_ = nullptr, *c1_ = nullptr;
};

// --- GPU adaptor ------------------------------------------------------------------------------

TEST_F(ServiceEdgeTest, GpuInvokeWithoutContinuationsInvokesErrorIfAny) {
  SimGpu gpu(&sys_.net(), n1_);
  GpuAdaptor adaptor(&sys_, *c1_, &gpu);
  adaptor.register_kernel("k", [](PoolBytes&, const std::vector<uint64_t>&) {
    return Duration::micros(1);
  });
  Process& client = sys_.spawn("client", n0_, *c0_);
  const CapId init =
      sys_.bootstrap_grant(adaptor.process(), adaptor.init_endpoint(), client).value();
  auto session = sys_.await_ok(GpuClient::init(client, init));
  const CapId kernel = sys_.await_ok(GpuClient::load(client, session, "k"));

  // Malformed: a single Request argument (needs success AND error). The adaptor must not
  // launch, must not crash, and must signal the one Request it got.
  bool signalled = false;
  const CapId only = sys_.await_ok(client.serve({}, [&](Process::Received) {
    signalled = true;
  }));
  ASSERT_TRUE(sys_.await(client.request_invoke(kernel, Process::Args{}.cap(only))).ok());
  sys_.loop().run();
  EXPECT_TRUE(signalled);
  EXPECT_EQ(gpu.launches(), 0u);

  // Malformed: an odd number of Memory caps (copy pairs must be even).
  signalled = false;
  const CapId mem = sys_.await_ok(client.memory_create(client.alloc(64), 64, Perms::kRead));
  const CapId ok_ep = sys_.await_ok(client.serve({}, [](Process::Received) {}));
  const CapId err_ep = sys_.await_ok(client.serve({}, [&](Process::Received) {
    signalled = true;
  }));
  ASSERT_TRUE(sys_.await(client.request_invoke(
                             kernel, Process::Args{}.cap(mem).cap(ok_ep).cap(err_ep)))
                  .ok());
  sys_.loop().run();
  EXPECT_TRUE(signalled);
  EXPECT_EQ(gpu.launches(), 0u);
}

TEST_F(ServiceEdgeTest, GpuTwoTenantsCannotTouchEachOthersBuffers) {
  SimGpu gpu(&sys_.net(), n1_);
  GpuAdaptor adaptor(&sys_, *c1_, &gpu);
  Process& tenant_a = sys_.spawn("tenant-a", n0_, *c0_);
  Process& tenant_b = sys_.spawn("tenant-b", n0_, *c0_);
  const CapId init_a =
      sys_.bootstrap_grant(adaptor.process(), adaptor.init_endpoint(), tenant_a).value();
  const CapId init_b =
      sys_.bootstrap_grant(adaptor.process(), adaptor.init_endpoint(), tenant_b).value();
  auto sa = sys_.await_ok(GpuClient::init(tenant_a, init_a));
  auto sb = sys_.await_ok(GpuClient::init(tenant_b, init_b));
  auto buf_a = sys_.await_ok(GpuClient::alloc(tenant_a, sa, 4096));
  auto buf_b = sys_.await_ok(GpuClient::alloc(tenant_b, sb, 4096));
  EXPECT_NE(buf_a.device_addr, buf_b.device_addr);

  // Tenant B never received a capability to A's buffer; it cannot even NAME it — the cid
  // space is per-process, so using A's cid value from B's space hits whatever B has there
  // (or nothing), never A's buffer. Verify the cid is meaningless in B's space:
  auto entry = c0_->inspect_cap(tenant_b.pid(), buf_a.mem);
  if (entry.ok()) {
    EXPECT_NE(entry.value().mem.addr, buf_a.device_addr);
  }
  // And after A's cleanup, B's session still works (isolation of contexts).
  ASSERT_TRUE(sys_.await(GpuClient::cleanup(tenant_a, sa)).ok());
  sys_.loop().run();
  auto buf_b2 = sys_.await_ok(GpuClient::alloc(tenant_b, sb, 1024));
  EXPECT_NE(buf_b2.mem, kInvalidCap);
}

// --- block adaptor -----------------------------------------------------------------------------

TEST_F(ServiceEdgeTest, BlockStreamingPreservesBytesAtSubChunkBoundaries) {
  auto nvme = std::make_unique<SimNvme>(&sys_.loop());
  BlockAdaptor::Params p;
  p.stream_chunk = 8 << 10;  // force many sub-chunks
  BlockAdaptor adaptor(&sys_, n1_, *c1_, nvme.get(), p);
  Process& client = sys_.spawn("client", n0_, *c0_, 4 << 20);
  const CapId mgmt =
      sys_.bootstrap_grant(adaptor.process(), adaptor.mgmt_endpoint(), client).value();
  auto vol = sys_.await_ok(BlockClient::create_volume(client, mgmt, 2 << 20));

  // An awkward size: not a multiple of the sub-chunk.
  const uint64_t size = (8 << 10) * 5 + 1234;
  const auto data = random_bytes(size, 99);
  const uint64_t addr = client.alloc(size);
  client.write_mem(addr, data);
  const CapId buf = sys_.await_ok(client.memory_create(addr, size, Perms::kReadWrite));
  ASSERT_TRUE(sys_.await(BlockClient::write(client, vol, 4096, size, buf)).ok());
  client.write_mem(addr, std::vector<uint8_t>(size, 0));
  ASSERT_TRUE(sys_.await(BlockClient::read(client, vol, 4096, size, buf)).ok());
  EXPECT_EQ(client.read_mem(addr, size), data);
  EXPECT_EQ(nvme->peek(4096, size), data);
}

TEST_F(ServiceEdgeTest, BlockReadFailsCleanlyWhenDestinationRevokedMidStream) {
  auto nvme = std::make_unique<SimNvme>(&sys_.loop());
  BlockAdaptor adaptor(&sys_, n1_, *c1_, nvme.get());
  Process& client = sys_.spawn("client", n0_, *c0_, 4 << 20);
  const CapId mgmt =
      sys_.bootstrap_grant(adaptor.process(), adaptor.mgmt_endpoint(), client).value();
  auto vol = sys_.await_ok(BlockClient::create_volume(client, mgmt, 2 << 20));
  const uint64_t size = 1 << 20;
  const uint64_t addr = client.alloc(size);
  const CapId buf = sys_.await_ok(client.memory_create(addr, size, Perms::kReadWrite));

  auto io = BlockClient::read(client, vol, 0, size, buf);
  // The device read takes ~70us before the first network copy; the (loopback, ~3us) revoke
  // lands well before it, so every RDMA into the destination must be refused.
  sys_.loop().run(10);
  ASSERT_TRUE(sys_.await(client.cap_revoke(buf)).ok());
  sys_.loop().run();
  ASSERT_TRUE(io.ready());
  EXPECT_FALSE(io.peek().ok());  // the RDMA into the revoked buffer was refused
}

TEST_F(ServiceEdgeTest, VolumeIsolationBetweenTenants) {
  auto nvme = std::make_unique<SimNvme>(&sys_.loop());
  BlockAdaptor adaptor(&sys_, n1_, *c1_, nvme.get());
  Process& a = sys_.spawn("a", n0_, *c0_);
  Process& b = sys_.spawn("b", n0_, *c0_);
  const CapId mgmt_a =
      sys_.bootstrap_grant(adaptor.process(), adaptor.mgmt_endpoint(), a).value();
  const CapId mgmt_b =
      sys_.bootstrap_grant(adaptor.process(), adaptor.mgmt_endpoint(), b).value();
  auto vol_a = sys_.await_ok(BlockClient::create_volume(a, mgmt_a, 64 << 10));
  auto vol_b = sys_.await_ok(BlockClient::create_volume(b, mgmt_b, 64 << 10));

  // Each tenant writes its own pattern at volume offset 0; they land at different device
  // locations — no interference.
  const auto da = random_bytes(4096, 1);
  const auto db = random_bytes(4096, 2);
  const CapId ba = sys_.await_ok(a.memory_create(a.alloc(4096), 4096, Perms::kReadWrite));
  const CapId bb = sys_.await_ok(b.memory_create(b.alloc(4096), 4096, Perms::kReadWrite));
  a.write_mem(0, da);
  b.write_mem(0, db);
  ASSERT_TRUE(sys_.await(BlockClient::write(a, vol_a, 0, 4096, ba)).ok());
  ASSERT_TRUE(sys_.await(BlockClient::write(b, vol_b, 0, 4096, bb)).ok());
  a.write_mem(0, std::vector<uint8_t>(4096, 0));
  ASSERT_TRUE(sys_.await(BlockClient::read(a, vol_a, 0, 4096, ba)).ok());
  EXPECT_EQ(a.read_mem(0, 4096), da);

  // Destroying A's volume leaves B untouched.
  ASSERT_TRUE(sys_.await(BlockClient::destroy(a, vol_a)).ok());
  sys_.loop().run();
  b.write_mem(0, std::vector<uint8_t>(4096, 0));
  ASSERT_TRUE(sys_.await(BlockClient::read(b, vol_b, 0, 4096, bb)).ok());
  EXPECT_EQ(b.read_mem(0, 4096), db);
}

// --- FS ---------------------------------------------------------------------------------------

class FsEdgeTest : public ::testing::Test {
 protected:
  FsEdgeTest() {
    cn_ = sys_.add_node("client");
    fn_ = sys_.add_node("fs");
    sn_ = sys_.add_node("storage");
    cc_ = &sys_.add_controller(cn_, Loc::kHost);
    cf_ = &sys_.add_controller(fn_, Loc::kHost);
    cs_ = &sys_.add_controller(sn_, Loc::kHost);
    nvme_ = std::make_unique<SimNvme>(&sys_.loop());
    block_ = std::make_unique<BlockAdaptor>(&sys_, sn_, *cs_, nvme_.get());
    FsService::Params p;
    p.staging_slots = 2;  // tiny pool: concurrency must queue, not break
    p.extent_bytes = 128 << 10;
    fs_ = FsService::bootstrap(&sys_, fn_, *cf_, block_->process(), block_->mgmt_endpoint(), p);
    client_ = &sys_.spawn("client", cn_, *cc_, 8 << 20);
    create_ = sys_.bootstrap_grant(fs_->process(), fs_->create_endpoint(), *client_).value();
    open_ = sys_.bootstrap_grant(fs_->process(), fs_->open_endpoint(), *client_).value();
  }

  System sys_;
  uint32_t cn_ = 0, fn_ = 0, sn_ = 0;
  Controller *cc_ = nullptr, *cf_ = nullptr, *cs_ = nullptr;
  std::unique_ptr<SimNvme> nvme_;
  std::unique_ptr<BlockAdaptor> block_;
  std::unique_ptr<FsService> fs_;
  Process* client_ = nullptr;
  CapId create_ = kInvalidCap, open_ = kInvalidCap;
};

TEST_F(FsEdgeTest, ManyConcurrentOpsOnTinySlotPool) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_, "f", 4 << 20)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_, "f", true, false));
  constexpr int kOps = 12;
  std::vector<CapId> bufs;
  std::vector<uint64_t> addrs;
  std::vector<std::vector<uint8_t>> datas;
  for (int i = 0; i < kOps; ++i) {
    const uint64_t addr = client_->alloc(64 << 10);
    addrs.push_back(addr);
    datas.push_back(random_bytes(64 << 10, 1000 + static_cast<uint64_t>(i)));
    client_->write_mem(addr, datas.back());
    bufs.push_back(
        sys_.await_ok(client_->memory_create(addr, 64 << 10, Perms::kReadWrite)));
  }
  std::vector<Future<Status>> writes;
  for (int i = 0; i < kOps; ++i) {
    writes.push_back(FsClient::write(*client_, f, static_cast<uint64_t>(i) * (64 << 10),
                                     64 << 10, bufs[static_cast<size_t>(i)]));
  }
  for (auto& w : writes) {
    ASSERT_TRUE(sys_.await(std::move(w)).ok());
  }
  // All content must have survived concurrent staged streaming through just 2 slots.
  for (int i = 0; i < kOps; ++i) {
    client_->write_mem(addrs[static_cast<size_t>(i)], std::vector<uint8_t>(64 << 10, 0));
    ASSERT_TRUE(sys_.await(FsClient::read(*client_, f, static_cast<uint64_t>(i) * (64 << 10),
                                          64 << 10, bufs[static_cast<size_t>(i)]))
                    .ok());
    EXPECT_EQ(client_->read_mem(addrs[static_cast<size_t>(i)], 64 << 10),
              datas[static_cast<size_t>(i)])
        << "op " << i;
  }
}

TEST_F(FsEdgeTest, ZeroAndOversizeIosRejected) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_, "f", 64 << 10)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_, "f", true, false));
  const CapId buf =
      sys_.await_ok(client_->memory_create(client_->alloc(4096), 4096, Perms::kReadWrite));
  EXPECT_FALSE(sys_.await(FsClient::read(*client_, f, 0, 0, buf)).ok());
  EXPECT_FALSE(sys_.await(FsClient::read(*client_, f, 60 << 10, 8 << 10, buf)).ok());
  EXPECT_FALSE(sys_.await(FsClient::write(*client_, f, (64 << 10) - 1, 2, buf)).ok());
}

TEST_F(FsEdgeTest, BufferSmallerThanIoRejected) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_, "f", 64 << 10)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_, "f", true, false));
  const CapId small =
      sys_.await_ok(client_->memory_create(client_->alloc(1024), 1024, Perms::kReadWrite));
  EXPECT_FALSE(sys_.await(FsClient::read(*client_, f, 0, 4096, small)).ok());
}

TEST_F(FsEdgeTest, CreateZeroSizedFileRejected) {
  EXPECT_FALSE(sys_.await(FsClient::create(*client_, create_, "zero", 0)).ok());
}

TEST_F(FsEdgeTest, ConcurrentCreatesOfOneNameLeaveOneFileAndItsVolumes) {
  // Both creates are in flight before either has made its three volumes: the name is
  // reserved by the first, so the second is refused and makes none.
  auto first = FsClient::create(*client_, create_, "dup", 384 << 10);
  auto second = FsClient::create(*client_, create_, "dup", 384 << 10);
  const Status a = sys_.await(std::move(first));
  const Status b = sys_.await(std::move(second));
  EXPECT_NE(a.ok(), b.ok());
  EXPECT_EQ((a.ok() ? b : a).error(), ErrorCode::kAlreadyExists);
  sys_.loop().run();
  EXPECT_EQ(fs_->num_files(), 1u);
  EXPECT_EQ(block_->num_volumes(), 3u);
}

TEST_F(FsEdgeTest, UnlinkDuringFsModeReadFailsTheRead) {
  const CapId unlink =
      sys_.bootstrap_grant(fs_->process(), fs_->unlink_endpoint(), *client_).value();
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_, "f", 512 << 10)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_, "f", false, false));
  const CapId buf =
      sys_.await_ok(client_->memory_create(client_->alloc(512 << 10), 512 << 10,
                                           Perms::kReadWrite));
  // The unlink revokes the volumes while the read's later chunks are still to be issued:
  // their block RPCs are refused, and the read fails instead of hanging on its slots.
  auto read = FsClient::read(*client_, f, 0, 512 << 10, buf);
  ASSERT_TRUE(sys_.await(FsClient::unlink(*client_, unlink, "f")).ok());
  sys_.loop().run();
  ASSERT_TRUE(read.ready());
  EXPECT_FALSE(read.take().ok());
  // Both staging slots came back: a new file's I/O goes through.
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_, "g", 4096)).ok());
  auto g = sys_.await_ok(FsClient::open(*client_, open_, "g", true, false));
  EXPECT_TRUE(sys_.await(FsClient::write(*client_, g, 0, 4096, buf)).ok());
}

TEST(FsCreateTest, FailedCreateDestroysTheVolumesItMade) {
  System sys;
  const uint32_t cn = sys.add_node("client");
  const uint32_t fn = sys.add_node("fs");
  const uint32_t sn = sys.add_node("storage");
  Controller& cc = sys.add_controller(cn, Loc::kHost);
  Controller& cf = sys.add_controller(fn, Loc::kHost);
  Controller& cs = sys.add_controller(sn, Loc::kHost);
  SimNvme::Params np;
  np.capacity_bytes = 256 << 10;  // room for two 128 KiB extents
  SimNvme nvme(&sys.loop(), np);
  BlockAdaptor block(&sys, sn, cs, &nvme);
  FsService::Params p;
  p.extent_bytes = 128 << 10;
  auto fs = FsService::bootstrap(&sys, fn, cf, block.process(), block.mgmt_endpoint(), p);
  Process& client = sys.spawn("client", cn, cc);
  const CapId create = sys.bootstrap_grant(fs->process(), fs->create_endpoint(), client).value();

  // Three extents on a device with room for two: the third volume fails, and the create
  // destroys the two it made before it answers.
  EXPECT_EQ(sys.await(FsClient::create(client, create, "big", 384 << 10)).error(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(block.num_volumes(), 0u);
  EXPECT_EQ(fs->num_files(), 0u);
  // The destroyed volumes gave their space back: the whole device fits a file again.
  EXPECT_TRUE(sys.await(FsClient::create(client, create, "fits", 256 << 10)).ok());
  EXPECT_EQ(block.num_volumes(), 2u);
}

TEST_F(FsEdgeTest, DoubleCloseFailsSecondTime) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_, "f", 4096)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_, "f", false, false));
  ASSERT_TRUE(sys_.await(FsClient::close(*client_, f)).ok());
  sys_.loop().run();
  EXPECT_FALSE(sys_.await(FsClient::close(*client_, f)).ok());
}

TEST_F(FsEdgeTest, ReadOnlyDaxCapCannotBeEscalatedByDiminish) {
  // A client holding a DAX read child cannot conjure write authority from it: diminish can
  // only narrow, and the write endpoints were never delivered for an RO open.
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_, "f", 64 << 10)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_, "f", /*rw=*/false, /*dax=*/true));
  ASSERT_EQ(f.write_eps.size(), 0u);
  // The read endpoint is a Request capability; memory_diminish on it is a kind error.
  EXPECT_EQ(sys_.await(client_->memory_diminish(f.read_eps[0], 0, 1, Perms::kNone)).error(),
            ErrorCode::kWrongObjectKind);
}

}  // namespace
}  // namespace fractos
