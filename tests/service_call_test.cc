// The FractOS services' call convention (src/core/service_call.h).
//
// ServiceCallTraffic pins what the services' simulated numbers are made of: every op of the
// FS (FS and DAX modes), block, GPU and mempool clients at least once, over one Network, with
// its control and data messages and bytes, when each op completed, and when the loop ran
// dry. It uses the client helpers only, so any change to the layout of an immediate, a
// reply or a message moves it.
//
// The rest holds the convention's rules: strict decoding on both ends, drop without a reply
// Request, and each refusal reaching its caller as its own ErrorCode.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "src/core/bootstrap.h"
#include "src/core/service_call.h"
#include "src/services/block_adaptor.h"
#include "src/services/completion.h"
#include "src/services/fs.h"
#include "src/services/gpu_adaptor.h"
#include "src/services/mempool.h"

namespace fractos {
namespace {

std::vector<uint8_t> pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 11);
  }
  return v;
}

// A client node and one node each for the FS, the block adaptor, the GPU and the memory pool.
class ServiceRig : public ::testing::Test {
 protected:
  ServiceRig() : nvme_(&sys_.loop()) {
    const uint32_t client_node = sys_.add_node("client");
    const uint32_t fs_node = sys_.add_node("fs");
    const uint32_t storage_node = sys_.add_node("storage");
    const uint32_t gpu_node = sys_.add_node("gpu");
    const uint32_t mem_node = sys_.add_node("mem");
    Controller& cc = sys_.add_controller(client_node, Loc::kHost);
    Controller& cf = sys_.add_controller(fs_node, Loc::kHost);
    Controller& cs = sys_.add_controller(storage_node, Loc::kHost);
    Controller& cg = sys_.add_controller(gpu_node, Loc::kHost);
    Controller& cm = sys_.add_controller(mem_node, Loc::kHost);
    block_ = std::make_unique<BlockAdaptor>(&sys_, storage_node, cs, &nvme_);
    FsService::Params fp;
    fp.extent_bytes = 64 << 10;
    fs_ = FsService::bootstrap(&sys_, fs_node, cf, block_->process(), block_->mgmt_endpoint(),
                               fp);
    gpu_ = std::make_unique<SimGpu>(&sys_.net(), gpu_node);
    gpu_adaptor_ = std::make_unique<GpuAdaptor>(&sys_, cg, gpu_.get());
    gpu_adaptor_->register_kernel("inc", [](PoolBytes& mem, const std::vector<uint64_t>& args) {
      for (uint64_t i = 0; i < args[1]; ++i) {
        mem[args[0] + i] = static_cast<uint8_t>(mem[args[0] + i] + 1);
      }
      return Duration::micros(20);
    });
    pool_ = MemPoolService::bootstrap(&sys_, mem_node, cm, 1 << 20);
    kv_ = std::make_unique<KvStore>(&sys_, mem_node, cm);
    client_ = &sys_.spawn("client", client_node, cc);
    create_ep_ = grant(fs_->process(), fs_->create_endpoint());
    open_ep_ = grant(fs_->process(), fs_->open_endpoint());
    unlink_ep_ = grant(fs_->process(), fs_->unlink_endpoint());
    mgmt_ep_ = grant(block_->process(), block_->mgmt_endpoint());
    init_ep_ = grant(gpu_adaptor_->process(), gpu_adaptor_->init_endpoint());
    attach_ep_ = grant(pool_->process(), pool_->attach_endpoint());
  }

  CapId grant(Process& owner, CapId cid) {
    return sys_.bootstrap_grant(owner, cid, *client_).value();
  }

  // Runs the loop until `f` resolves, and records when it did.
  template <typename T>
  T await(Future<T> f) {
    T v = sys_.await(std::move(f));
    done_ns_.push_back(sys_.loop().now().ns());
    return v;
  }

  CapId make_buffer(uint64_t size) {
    last_addr_ = client_->alloc(size);
    return sys_.await_ok(client_->memory_create(last_addr_, size, Perms::kReadWrite));
  }

  System sys_;
  SimNvme nvme_;
  std::unique_ptr<BlockAdaptor> block_;
  std::unique_ptr<FsService> fs_;
  std::unique_ptr<SimGpu> gpu_;
  std::unique_ptr<GpuAdaptor> gpu_adaptor_;
  std::unique_ptr<MemPoolService> pool_;
  std::unique_ptr<KvStore> kv_;
  Process* client_ = nullptr;
  CapId create_ep_ = kInvalidCap, open_ep_ = kInvalidCap, unlink_ep_ = kInvalidCap;
  CapId mgmt_ep_ = kInvalidCap, init_ep_ = kInvalidCap, attach_ep_ = kInvalidCap;
  uint64_t last_addr_ = 0;
  std::vector<int64_t> done_ns_;
};

class ServiceCallTraffic : public ServiceRig {};

TEST_F(ServiceCallTraffic, EveryOpKeepsItsExtentsAndInstants) {
  const TrafficCounters before = sys_.net().counters();
  const int64_t start_ns = sys_.loop().now().ns();

  // FS: create, open in FS mode, write, read; open in DAX mode, read across an extent
  // boundary; close both, unlink.
  ASSERT_TRUE(await(FsClient::create(*client_, create_ep_, "f", 128 << 10)).ok());
  const auto fs_file = await(FsClient::open(*client_, open_ep_, "f", true, false));
  ASSERT_TRUE(fs_file.ok());
  const CapId buf = make_buffer(16 << 10);
  const uint64_t buf_addr = last_addr_;
  client_->write_mem(buf_addr, pattern(16 << 10, 3));
  ASSERT_TRUE(await(FsClient::write(*client_, fs_file.value(), 60 << 10, 8 << 10, buf)).ok());
  ASSERT_TRUE(await(FsClient::read(*client_, fs_file.value(), 60 << 10, 8 << 10, buf)).ok());
  const auto dax_file = await(FsClient::open(*client_, open_ep_, "f", false, true));
  ASSERT_TRUE(dax_file.ok());
  EXPECT_EQ(dax_file.value().read_eps.size(), 2u);
  ASSERT_TRUE(await(FsClient::read(*client_, dax_file.value(), 60 << 10, 8 << 10, buf)).ok());
  EXPECT_EQ(client_->read_mem(buf_addr, 8 << 10), pattern(8 << 10, 3));
  ASSERT_TRUE(await(FsClient::close(*client_, fs_file.value())).ok());
  ASSERT_TRUE(await(FsClient::close(*client_, dax_file.value())).ok());
  ASSERT_TRUE(await(FsClient::unlink(*client_, unlink_ep_, "f")).ok());
  EXPECT_FALSE(await(FsClient::open(*client_, open_ep_, "f", false, false)).ok());

  // Block: create a volume, write, read, destroy.
  const auto vol = await(BlockClient::create_volume(*client_, mgmt_ep_, 64 << 10));
  ASSERT_TRUE(vol.ok());
  ASSERT_TRUE(await(BlockClient::write(*client_, vol.value(), 4096, 4096, buf)).ok());
  ASSERT_TRUE(await(BlockClient::read(*client_, vol.value(), 4096, 4096, buf)).ok());
  ASSERT_TRUE(await(BlockClient::destroy(*client_, vol.value())).ok());

  // GPU: init, alloc, load, run, cleanup.
  const auto session = await(GpuClient::init(*client_, init_ep_));
  ASSERT_TRUE(session.ok());
  const auto gbuf = await(GpuClient::alloc(*client_, session.value(), 4096));
  ASSERT_TRUE(gbuf.ok());
  const auto kernel = await(GpuClient::load(*client_, session.value(), "inc"));
  ASSERT_TRUE(kernel.ok());
  ASSERT_TRUE(await(GpuClient::run(*client_, kernel.value(), {gbuf.value().device_addr, 4096},
                                   gbuf.value().mem, buf))
                  .ok());
  EXPECT_FALSE(await(GpuClient::load(*client_, session.value(), "nope")).ok());
  ASSERT_TRUE(await(GpuClient::cleanup(*client_, session.value())).ok());

  // Mempool: attach, attach the same name again.
  const auto seg = await(MemPoolClient::attach(*client_, attach_ep_, "seg", 8192));
  ASSERT_TRUE(seg.ok());
  const auto again = await(MemPoolClient::attach(*client_, attach_ep_, "seg", 4096));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().addr, seg.value().addr);

  sys_.loop().run();
  // Every syscall and its reply, every delivery and peer message is a control message; the
  // data class carries the memory copies and RDMA.
  const TrafficCounters& c = sys_.net().counters();
  EXPECT_EQ(c.messages[0] - before.messages[0], 654u);
  EXPECT_EQ(c.messages[1] - before.messages[1], 52u);
  EXPECT_EQ(c.bytes[0] - before.bytes[0], 67411u);
  EXPECT_EQ(c.bytes[1] - before.bytes[1], 109928u);
  std::vector<int64_t> since_start;
  for (const int64_t t : done_ns_) {
    since_start.push_back(t - start_ns);
  }
  EXPECT_EQ(since_start,
            std::vector<int64_t>({86435,   119220,  233669,  499518,  538850,  762561,
                                  787019,  816329,  886935,  908149,  940840,  997142,
                                  1109171, 1133932, 1166606, 1193241, 1219854, 1293245,
                                  1314428, 1341886, 1368549, 1392519}));
  EXPECT_EQ(sys_.loop().now().ns() - start_ns, 1393788);
}

class ServiceCallStatus : public ServiceRig {
 protected:
  // The status a raw call to `ep` is answered with.
  ErrorCode status_of(CapId ep, Process::Args args) {
    const Result<Process::Received> r = sys_.await(client_->call(ep, std::move(args)));
    return r.ok() ? reply_status(r.value()) : r.error();
  }

  // An endpoint of the client's own that answers every call with `reply`.
  CapId stand_in(Process::Args reply) {
    return sys_.await_ok(client_->serve({}, [this, reply](Process::Received r) {
      client_->request_invoke(r.caps.back().cid, reply);
    }));
  }
};

// Only an error continuation: the adaptor refuses the invoke with kInvalidArgument, its own
// code, and launches nothing.
TEST_F(ServiceCallStatus, MalformedKernelInvokeAnswersInvalidArgument) {
  const auto session = sys_.await_ok(GpuClient::init(*client_, init_ep_));
  const CapId kernel = sys_.await_ok(GpuClient::load(*client_, session, "inc"));
  const Status s = sys_.await(Completion::once(*client_, [this, kernel](CapId, CapId err) {
    return client_->request_invoke(kernel, Process::Args{}.cap(err));
  }));
  EXPECT_EQ(s.error(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(gpu_->launches(), 0u);
}

// Growing a shared segment and running out of pool are two refusals with two codes.
TEST_F(ServiceCallStatus, AttachLargerThanTheSegmentAnswersAlreadyExists) {
  ASSERT_TRUE(sys_.await(MemPoolClient::attach(*client_, attach_ep_, "s", 4096)).ok());
  EXPECT_EQ(sys_.await(MemPoolClient::attach(*client_, attach_ep_, "s", 8192)).error(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(sys_.await(MemPoolClient::attach(*client_, attach_ep_, "t", 2 << 20)).error(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(pool_->num_segments(), 1u);
}

TEST_F(ServiceCallStatus, EmptyVolumeAnswersInvalidArgument) {
  EXPECT_EQ(sys_.await(BlockClient::create_volume(*client_, mgmt_ep_, 0)).error(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(block_->num_volumes(), 0u);
}

// Strict decoding: a mode that is not a bool, a missing name, or a kernel name where a size
// belongs is answered kInvalidArgument, and nothing is opened or stored.
TEST_F(ServiceCallStatus, RequestThatDoesNotDecodeAnswersInvalidArgument) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "f", 4096)).ok());
  EXPECT_EQ(status_of(open_ep_, Process::Args{}.imm_u64(0, 2).imm_u64(8, 0).imm_str(16, "f")),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(status_of(open_ep_, Process::Args{}.imm_u64(0, 0).imm_u64(8, 0)),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(status_of(create_ep_, Process::Args{}.imm_str(0, "g")), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs_->num_files(), 1u);
  const KvStore::Endpoints kv = kv_->grant_to(*client_);
  EXPECT_EQ(status_of(kv.get, Process::Args{}), ErrorCode::kInvalidArgument);
  EXPECT_EQ(status_of(kv.put, Process::Args{}.cap(mgmt_ep_)), ErrorCode::kInvalidArgument);
  EXPECT_EQ(kv_->size(), 0u);
  // A name that was never put is the store's own refusal.
  EXPECT_EQ(sys_.await(KvStore::get(*client_, kv.get, "nothing")).error(), ErrorCode::kNotFound);
}

// A request without a capability has no reply Request: it is dropped, not run.
TEST_F(ServiceCallStatus, RequestWithoutAReplyRequestIsDropped) {
  ASSERT_TRUE(
      sys_.await(client_->request_invoke(create_ep_, imm_args(FsCreateArgs{4096, "f"}))).ok());
  sys_.loop().run();
  EXPECT_EQ(fs_->num_files(), 0u);
}

// The caller's end decodes as strictly: a kOk reply without its fields or its capability,
// and a status no ErrorCode has, resolve kInternal; a refusal resolves with its own code.
TEST_F(ServiceCallStatus, ReplyThatDoesNotDecodeResolvesInternal) {
  const CapId mem = make_buffer(4096);
  auto attach = [this](CapId ep) {
    return sys_.await(MemPoolClient::attach(*client_, ep, "x", 4096));
  };
  EXPECT_EQ(attach(stand_in(Process::Args{}.imm_u64(0, 0).cap(mem))).error(),
            ErrorCode::kInternal);
  EXPECT_EQ(attach(stand_in(Process::Args{}.imm_u64(0, 0).imm_u64(8, 0).imm_u64(16, 64)))
                .error(),
            ErrorCode::kInternal);
  EXPECT_EQ(attach(stand_in(Process::Args{}.imm_u64(0, 300).cap(mem))).error(),
            ErrorCode::kInternal);
  EXPECT_EQ(attach(stand_in(Process::Args{}.cap(mem))).error(), ErrorCode::kInternal);
  EXPECT_EQ(attach(stand_in(Process::Args{}.imm_u64(0, 7))).error(), ErrorCode::kOutOfRange);
  const auto good =
      attach(stand_in(Process::Args{}.imm_u64(0, 0).imm_u64(8, 4096).imm_u64(16, 64).cap(mem)));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().addr, 4096u);
  EXPECT_EQ(good.value().size, 64u);
}

}  // namespace
}  // namespace fractos
