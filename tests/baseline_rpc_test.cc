// The baselines' request/reply RPC (src/baselines/rpc.h) and the three protocols on it:
// NFS, rCUDA and NVMe-oF.
//
// BaselineRpcTraffic pins what the paper's baseline numbers are made of: every op of each
// protocol at least once, over one Network, with its control and data messages and bytes,
// when each op completed, when the loop ran dry, and the bytes the reads returned. The
// scaleout and open-loop JSONs gate the same frames end to end.
//
// The rest holds the layer's rules for frames from the wire (drop, never abort), its
// fail-on-sever, the status each protocol answers with, and the protocols' range checks
// against offsets and sizes that wrap past 2^64.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/baselines/nfs.h"
#include "src/baselines/nvmeof.h"
#include "src/baselines/rcuda.h"
#include "src/baselines/rpc.h"

namespace fractos {
namespace {

std::vector<uint8_t> pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return v;
}

// NFS over NVMe-oF, and rCUDA, from one client node.
class BaselineRig : public ::testing::Test {
 protected:
  BaselineRig() : net_(&loop_), nvme_(&loop_) {
    client_node_ = net_.add_node("client");
    fs_node_ = net_.add_node("fs");
    storage_node_ = net_.add_node("storage");
    gpu_node_ = net_.add_node("gpu");
    target_ = std::make_unique<NvmeofTarget>(&net_, storage_node_, &nvme_);
    initiator_ = std::make_unique<NvmeofInitiator>(&net_, fs_node_, target_.get());
    nfs_server_ = std::make_unique<NfsServer>(&net_, fs_node_, initiator_.get());
    nfs_ = std::make_unique<NfsClient>(&net_, client_node_, nfs_server_.get());
    gpu_ = std::make_unique<SimGpu>(&net_, gpu_node_);
    daemon_ = std::make_unique<RcudaDaemon>(&net_, gpu_.get());
    daemon_->register_kernel("inc", [](PoolBytes& mem, const std::vector<uint64_t>& args) {
      for (uint64_t i = 0; i < args[1]; ++i) {
        mem[args[0] + i] = static_cast<uint8_t>(mem[args[0] + i] + 1);
      }
      return Duration::micros(30);
    });
    rcuda_ = std::make_unique<RcudaClient>(&net_, client_node_, daemon_.get());
  }

  // Runs the loop until `f` resolves, and records when it did.
  template <typename T>
  T await(Future<T> f) {
    loop_.run_until([&]() { return f.ready(); });
    done_ns_.push_back(loop_.now().ns());
    return f.take();
  }

  Result<Payload> nvme_read(uint64_t off, uint64_t size) {
    Promise<Result<Payload>> p;
    initiator_->read(off, size, [p](Result<Payload> r) { p.set(std::move(r)); });
    return await(p.future());
  }
  Status nvme_write(uint64_t off, std::vector<uint8_t> data) {
    Promise<Status> p;
    initiator_->write(off, std::move(data), [p](Status s) { p.set(s); });
    return await(p.future());
  }

  EventLoop loop_;
  Network net_;
  SimNvme nvme_;
  uint32_t client_node_ = 0, fs_node_ = 0, storage_node_ = 0, gpu_node_ = 0;
  std::unique_ptr<NvmeofTarget> target_;
  std::unique_ptr<NvmeofInitiator> initiator_;
  std::unique_ptr<NfsServer> nfs_server_;
  std::unique_ptr<NfsClient> nfs_;
  std::unique_ptr<SimGpu> gpu_;
  std::unique_ptr<RcudaDaemon> daemon_;
  std::unique_ptr<RcudaClient> rcuda_;
  std::vector<int64_t> done_ns_;
};

class BaselineRpcTraffic : public BaselineRig {};

TEST_F(BaselineRpcTraffic, EveryOpKeepsItsFramesAndInstants) {
  // NVMe-oF: write, read.
  const std::vector<uint8_t> blocks = pattern(8192, 3);
  ASSERT_TRUE(nvme_write(0, blocks).ok());
  const Result<Payload> block = nvme_read(4096, 4096);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block.value().to_vector(),
            std::vector<uint8_t>(blocks.begin() + 4096, blocks.end()));

  // NFS over that NVMe-oF: open, write, read, and two refusals.
  ASSERT_TRUE(nfs_server_->create_file("a", 16384).ok());
  const auto a = await(nfs_->open("a"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().size, 16384u);
  ASSERT_TRUE(await(nfs_->write(a.value(), 4096, pattern(8192, 7))).ok());
  const auto file_bytes = await(nfs_->read(a.value(), 4096, 8192));
  ASSERT_TRUE(file_bytes.ok());
  EXPECT_EQ(file_bytes.value(), pattern(8192, 7));
  EXPECT_FALSE(await(nfs_->open("ghost")).ok());
  EXPECT_FALSE(await(nfs_->read(a.value(), 12288, 8192)).ok());

  // rCUDA: all seven driver calls, and one refusal.
  const auto addr = await(rcuda_->cu_mem_alloc(1024));
  ASSERT_TRUE(addr.ok());
  const auto fn = await(rcuda_->cu_module_get_function("inc"));
  ASSERT_TRUE(fn.ok());
  ASSERT_TRUE(await(rcuda_->cu_memcpy_htod(addr.value(), pattern(1024, 10))).ok());
  ASSERT_TRUE(await(rcuda_->cu_launch_kernel(fn.value(), {addr.value(), 1024})).ok());
  ASSERT_TRUE(await(rcuda_->cu_ctx_synchronize()).ok());
  const auto gpu_bytes = await(rcuda_->cu_memcpy_dtoh(addr.value(), 1024));
  ASSERT_TRUE(gpu_bytes.ok());
  std::vector<uint8_t> incremented = pattern(1024, 10);
  for (uint8_t& b : incremented) {
    ++b;
  }
  EXPECT_EQ(gpu_bytes.value(), incremented);
  ASSERT_TRUE(await(rcuda_->cu_mem_free(addr.value())).ok());
  EXPECT_FALSE(await(rcuda_->cu_module_get_function("nope")).ok());
  EXPECT_EQ(rcuda_->calls_issued(), 8u);

  loop_.run();
  // Each op is one request and one reply; an NFS read or write adds its NVMe-oF pair. The
  // data class carries writes' requests and reads' replies.
  const TrafficCounters& c = net_.counters();
  EXPECT_EQ(c.control_messages(), 26u);
  EXPECT_EQ(c.data_messages(), 8u);
  EXPECT_EQ(c.bytes[0], 2216u);
  EXPECT_EQ(c.bytes[1], 48506u);
  EXPECT_EQ(done_ns_, std::vector<int64_t>({27368, 105498, 112938, 154405, 251332, 258763, 266206,
                                            293642, 321077, 349499, 376945, 414945, 443370,
                                            470800, 498230}));
  EXPECT_EQ(loop_.now().ns(), 498230);
}

// --- Frames from the wire are dropped, never trusted -----------------------------------------

class BaselineRpc : public BaselineRig {
 protected:
  // A raw connection to the NFS server: the test writes the frames by hand.
  BaselineRpc() : raw_(&net_, Endpoint{client_node_, Loc::kHost}) {
    QueuePair::connect(raw_, nfs_server_->rpc().accept());
    raw_.set_receive_handler([this](Payload frame) { replies_.push_back(frame.to_vector()); });
  }

  void send_raw(std::initializer_list<uint64_t> u64s, uint8_t op, uint64_t seq) {
    Encoder e;
    e.put_u8(op);
    e.put_u64(seq);
    for (uint64_t v : u64s) {
      e.put_u64(v);
    }
    raw_.send(Traffic::kControl, e.take());
  }

  QueuePair raw_;
  std::vector<std::vector<uint8_t>> replies_;
};

TEST_F(BaselineRpc, RequestsThatDoNotDecodeAreDroppedUnanswered) {
  ASSERT_TRUE(nfs_server_->create_file("a", 4096).ok());
  const auto a = await(nfs_->open("a"));
  ASSERT_TRUE(a.ok());
  raw_.send(Traffic::kControl, Payload());               // no header
  send_raw({}, /*op=*/9, /*seq=*/1);                     // no such op
  send_raw({a.value().fh, 0}, /*op=*/1, /*seq=*/2);      // a read missing its size
  send_raw({a.value().fh, 0, 8, 7}, /*op=*/1, /*seq=*/3);  // a read with a trailing field
  send_raw({a.value().fh, 0, 8}, /*op=*/1, /*seq=*/4);   // a whole read
  loop_.run();
  // Only the whole read was served: [reply-op 3][seq 4][status kOk][u32 8][8 bytes].
  ASSERT_EQ(replies_.size(), 1u);
  Decoder d(replies_[0]);
  RpcReplyHeader h;
  d.get(h);
  EXPECT_EQ(h.op, 3u);
  EXPECT_EQ(h.seq, 4u);
  EXPECT_EQ(h.status, ErrorCode::kOk);
  EXPECT_EQ(d.get_span().size(), 8u);
  EXPECT_TRUE(d.done());
  // The client's own connection still works.
  EXPECT_TRUE(await(nfs_->read(a.value(), 0, 8)).ok());
}

struct Ping {
  uint64_t v = 0;
  FRACTOS_WIRE_FIELDS(v)
};

TEST(BaselineRpcReplies, RepliesThatDoNotDecodeOrMatchAreDropped) {
  EventLoop loop;
  Network net(&loop);
  const uint32_t client_node = net.add_node("client");
  const uint32_t server_node = net.add_node("server");
  RpcServer server(&net, Endpoint{server_node, Loc::kHost}, /*reply_op=*/9);
  server.on<Ping>(0, [](Ping, RpcServer::Reply reply) {
    reply.send(Traffic::kControl, static_cast<ErrorCode>(200));  // status past enum_last
    reply.status(ErrorCode::kNotFound);
    reply.status(ErrorCode::kOk);  // a second answer: nothing waits for its seq any more
  });
  // A payload shorter than the typed reply it should carry.
  server.on<Ping>(1, [](Ping, RpcServer::Reply reply) { reply.ok(uint32_t{5}); });
  RpcClient client(&net, Endpoint{client_node, Loc::kHost}, server);

  Future<Status> answered = client.call(0, Ping{1}, Traffic::kControl);
  Future<Result<uint64_t>> short_payload = client.call<uint64_t>(1, Ping{2}, Traffic::kControl);
  loop.run();
  ASSERT_TRUE(answered.ready());
  EXPECT_EQ(answered.take().error(), ErrorCode::kNotFound);
  ASSERT_TRUE(short_payload.ready());
  EXPECT_EQ(short_payload.take().error(), ErrorCode::kInternal);
}

TEST_F(BaselineRpc, SeverFailsEveryPendingCallInSeqOrder) {
  ASSERT_TRUE(nfs_server_->create_file("a", 4096).ok());
  // The server's node drops off the fabric once the opens below have arrived and been
  // ACKed: its replies exhaust their retries, and its end of the connection severs.
  FaultPlan plan;
  plan.outages.push_back({fs_node_, loop_.now() + Duration::micros(5),
                          Time::from_ns(1'000'000'000)});
  net_.install_fault_injector(plan);
  std::vector<std::pair<int, ErrorCode>> failed;
  for (int i = 0; i < 3; ++i) {
    nfs_->open("a").on_ready([&failed, i](Result<NfsClient::FileHandle>&& r) {
      failed.emplace_back(i, r.error());
    });
  }
  loop_.run();
  EXPECT_EQ(failed, (std::vector<std::pair<int, ErrorCode>>{{0, ErrorCode::kChannelClosed},
                                                            {1, ErrorCode::kChannelClosed},
                                                            {2, ErrorCode::kChannelClosed}}));
  // A call after the sever fails at once.
  auto late = nfs_->open("a");
  ASSERT_TRUE(late.ready());
  EXPECT_EQ(late.take().error(), ErrorCode::kChannelClosed);
}

TEST_F(BaselineRpc, OwnRetryExhaustionFailsThePendingCalls) {
  ASSERT_TRUE(nfs_server_->create_file("a", 4096).ok());
  // Every message between client and server is lost: the client's request exhausts its
  // retries, and its own end severs, which runs the client's severed handler.
  FaultPlan plan;
  plan.link_overrides.push_back({client_node_, fs_node_, {1.0, 1.0}});
  net_.install_fault_injector(plan);
  auto first = nfs_->open("a");
  loop_.run();
  ASSERT_TRUE(first.ready());
  EXPECT_EQ(first.take().error(), ErrorCode::kChannelClosed);
  auto next = nfs_->open("a");
  ASSERT_TRUE(next.ready());
  EXPECT_EQ(next.take().error(), ErrorCode::kChannelClosed);
}

// --- One status convention: the reply's status byte is the ErrorCode -------------------------

class BaselineStatus : public BaselineRig {};

TEST_F(BaselineStatus, NfsAnswersWithTheRealCode) {
  ASSERT_TRUE(nfs_server_->create_file("a", 4096).ok());
  const auto a = await(nfs_->open("a"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(await(nfs_->open("ghost")).error(), ErrorCode::kNotFound);
  EXPECT_EQ(await(nfs_->read(a.value(), 4000, 4096)).error(), ErrorCode::kOutOfRange);
  EXPECT_EQ(await(nfs_->write(a.value(), 4096, {1})).error(), ErrorCode::kOutOfRange);
  const NfsClient::FileHandle stale{a.value().fh + 1, 4096};
  EXPECT_EQ(await(nfs_->read(stale, 0, 8)).error(), ErrorCode::kNotFound);
  EXPECT_EQ(nfs_server_->create_file("a", 4096).error(), ErrorCode::kAlreadyExists);
}

TEST_F(BaselineStatus, RcudaAnswersWithTheRealCode) {
  EXPECT_EQ(await(rcuda_->cu_module_get_function("nope")).error(), ErrorCode::kNotFound);
  EXPECT_EQ(await(rcuda_->cu_mem_alloc(0)).error(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(await(rcuda_->cu_mem_alloc(gpu_->params().memory_bytes + 1)).error(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(await(rcuda_->cu_mem_free(12345)).error(), ErrorCode::kNotFound);
  EXPECT_EQ(await(rcuda_->cu_memcpy_dtoh(gpu_->params().memory_bytes, 1)).error(),
            ErrorCode::kOutOfRange);
}

// --- Range checks that a sum wrapping past 2^64 cannot pass ----------------------------------

class BaselineBounds : public BaselineRig {};

TEST_F(BaselineBounds, RcudaCopyNearTwoToTheSixtyFourIsRefused) {
  // addr + size wraps to 8: were the sum trusted, the copies would run 8 bytes before the GPU
  // pool.
  const uint64_t addr = ~0ull - 7;
  EXPECT_EQ(await(rcuda_->cu_memcpy_htod(addr, std::vector<uint8_t>(16, 0xee))).error(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(await(rcuda_->cu_memcpy_dtoh(addr, 16)).error(), ErrorCode::kOutOfRange);
}

TEST_F(BaselineBounds, NfsOffsetNearTwoToTheSixtyFourCannotReachAnotherFile) {
  ASSERT_TRUE(nfs_server_->create_file("a", 8192).ok());
  ASSERT_TRUE(nfs_server_->create_file("b", 4096).ok());
  const auto a = await(nfs_->open("a"));
  const auto b = await(nfs_->open("b"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(await(nfs_->write(a.value(), 0, pattern(8192, 5))).ok());
  // off + size wraps to 0: were the sum trusted, b's offset 2^64 - 4096 would be a's tail.
  const uint64_t off = ~0ull - 4095;
  EXPECT_EQ(await(nfs_->read(b.value(), off, 4096)).error(), ErrorCode::kOutOfRange);
  EXPECT_EQ(await(nfs_->write(b.value(), off, std::vector<uint8_t>(4096, 0))).error(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(await(nfs_->read(a.value(), 0, 8192)).value(), pattern(8192, 5));
}

TEST_F(BaselineBounds, NfsCreateChecksTheSizeBeforeRoundingIt) {
  // ~0 rounds up to 0: were the rounded size trusted, "huge" would take no room and share
  // the next file's region.
  EXPECT_EQ(nfs_server_->create_file("huge", ~0ull).error(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(nfs_server_->create_file("full", nvme_.capacity() + 1).error(),
            ErrorCode::kResourceExhausted);
  ASSERT_TRUE(nfs_server_->create_file("a", 4096).ok());
  ASSERT_TRUE(nfs_server_->create_file("b", 4096).ok());
  const auto a = await(nfs_->open("a"));
  const auto b = await(nfs_->open("b"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(await(nfs_->write(a.value(), 0, pattern(4096, 1))).ok());
  ASSERT_TRUE(await(nfs_->write(b.value(), 0, pattern(4096, 2))).ok());
  EXPECT_EQ(await(nfs_->read(a.value(), 0, 4096)).value(), pattern(4096, 1));
  EXPECT_FALSE(await(nfs_->open("huge")).ok());
}

}  // namespace
}  // namespace fractos
