// Soak test: a long randomized workload mixing every service — FS reads/writes (FS and DAX
// modes), GPU kernel runs, raw copies, revocations and process churn — with continuous data
// verification and, at the end, object-table reclamation checks (the two-phase cleanup must
// keep table sizes bounded by live state, not by operation count).

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/services/block_adaptor.h"
#include "src/services/fs.h"
#include "src/services/gpu_adaptor.h"
#include "src/sim/rng.h"

namespace fractos {
namespace {

class SoakTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kFileBytes = 1 << 20;
  static constexpr uint64_t kBufBytes = 64 << 10;

  SoakTest() : rng_(20260706) {
    cn_ = sys_.add_node("client");
    fn_ = sys_.add_node("fs");
    sn_ = sys_.add_node("storage");
    gn_ = sys_.add_node("gpu");
    cc_ = &sys_.add_controller(cn_, Loc::kHost);
    cf_ = &sys_.add_controller(fn_, Loc::kHost);
    cs_ = &sys_.add_controller(sn_, Loc::kHost);
    cg_ = &sys_.add_controller(gn_, Loc::kHost);
    nvme_ = std::make_unique<SimNvme>(&sys_.loop());
    block_ = std::make_unique<BlockAdaptor>(&sys_, sn_, *cs_, nvme_.get());
    fs_ = FsService::bootstrap(&sys_, fn_, *cf_, block_->process(), block_->mgmt_endpoint());
    gpu_ = std::make_unique<SimGpu>(&sys_.net(), gn_);
    gpu_adaptor_ = std::make_unique<GpuAdaptor>(&sys_, *cg_, gpu_.get());
    gpu_adaptor_->register_kernel("xor", [](PoolBytes& m,
                                            const std::vector<uint64_t>& a) {
      for (uint64_t i = 0; i < a[2]; ++i) {
        m[a[1] + i] = static_cast<uint8_t>(m[a[0] + i] ^ 0x77);
      }
      return Duration::micros(20);
    });

    client_ = &sys_.spawn("client", cn_, *cc_, 16 << 20);
    create_ = sys_.bootstrap_grant(fs_->process(), fs_->create_endpoint(), *client_).value();
    open_ = sys_.bootstrap_grant(fs_->process(), fs_->open_endpoint(), *client_).value();
    const CapId init =
        sys_.bootstrap_grant(gpu_adaptor_->process(), gpu_adaptor_->init_endpoint(), *client_)
            .value();
    session_ = sys_.await_ok(GpuClient::init(*client_, init));
    kernel_ = sys_.await_ok(GpuClient::load(*client_, session_, "xor"));
    gpu_in_ = sys_.await_ok(GpuClient::alloc(*client_, session_, kBufBytes));
    gpu_out_ = sys_.await_ok(GpuClient::alloc(*client_, session_, kBufBytes));

    buf_addr_ = client_->alloc(kBufBytes);
    buf_ = sys_.await_ok(client_->memory_create(buf_addr_, kBufBytes, Perms::kReadWrite));
    FRACTOS_CHECK(sys_.await(FsClient::create(*client_, create_, "soak", kFileBytes)).ok());
    file_fs_ = sys_.await_ok(FsClient::open(*client_, open_, "soak", true, false));
    file_dax_ = sys_.await_ok(FsClient::open(*client_, open_, "soak", true, true));
  }

  std::vector<uint8_t> rand_bytes(uint64_t n) {
    std::vector<uint8_t> v(n);
    for (auto& b : v) {
      b = rng_.next_byte();
    }
    return v;
  }

  System sys_;
  Rng rng_;
  uint32_t cn_ = 0, fn_ = 0, sn_ = 0, gn_ = 0;
  Controller *cc_ = nullptr, *cf_ = nullptr, *cs_ = nullptr, *cg_ = nullptr;
  std::unique_ptr<SimNvme> nvme_;
  std::unique_ptr<BlockAdaptor> block_;
  std::unique_ptr<FsService> fs_;
  std::unique_ptr<SimGpu> gpu_;
  std::unique_ptr<GpuAdaptor> gpu_adaptor_;
  Process* client_ = nullptr;
  CapId create_ = kInvalidCap, open_ = kInvalidCap;
  GpuClient::Session session_;
  CapId kernel_ = kInvalidCap;
  GpuClient::Buffer gpu_in_, gpu_out_;
  uint64_t buf_addr_ = 0;
  CapId buf_ = kInvalidCap;
  FsClient::OpenFile file_fs_, file_dax_;
};

TEST_F(SoakTest, MixedWorkloadStaysConsistent) {
  // Reference model of the file.
  std::vector<uint8_t> file_model(kFileBytes, 0);
  int ops_done = 0;

  for (int op = 0; op < 250; ++op) {
    const uint64_t io = 4096ull << rng_.next_below(4);  // 4K..32K
    const uint64_t off = rng_.next_below((kFileBytes - io) / 4096 + 1) * 4096;
    const bool dax = rng_.next_bool();
    const auto& file = dax ? file_dax_ : file_fs_;
    switch (rng_.next_below(4)) {
      case 0: {  // write
        const auto data = rand_bytes(io);
        client_->write_mem(buf_addr_, data);
        ASSERT_TRUE(sys_.await(FsClient::write(*client_, file, off, io, buf_)).ok())
            << "op " << op;
        std::copy(data.begin(), data.end(),
                  file_model.begin() + static_cast<ptrdiff_t>(off));
        break;
      }
      case 1: {  // read + verify
        client_->write_mem(buf_addr_, std::vector<uint8_t>(io, 0));
        ASSERT_TRUE(sys_.await(FsClient::read(*client_, file, off, io, buf_)).ok())
            << "op " << op;
        const auto got = client_->read_mem(buf_addr_, io);
        const std::vector<uint8_t> expect(
            file_model.begin() + static_cast<ptrdiff_t>(off),
            file_model.begin() + static_cast<ptrdiff_t>(off + io));
        ASSERT_EQ(got, expect) << "op " << op << (dax ? " dax" : " fs");
        break;
      }
      case 2: {  // GPU round trip: buf -> gpu_in, xor kernel, gpu_out -> buf, verify
        const auto data = rand_bytes(kBufBytes);
        client_->write_mem(buf_addr_, data);
        ASSERT_TRUE(sys_.await(client_->memory_copy(buf_, gpu_in_.mem)).ok());
        ASSERT_TRUE(sys_.await(GpuClient::run(
                                   *client_, kernel_,
                                   {gpu_in_.device_addr, gpu_out_.device_addr, kBufBytes},
                                   gpu_out_.mem, buf_))
                        .ok())
            << "op " << op;
        const auto got = client_->read_mem(buf_addr_, kBufBytes);
        for (uint64_t i = 0; i < kBufBytes; i += 4099) {  // spot check
          ASSERT_EQ(got[i], static_cast<uint8_t>(data[i] ^ 0x77)) << "op " << op;
        }
        break;
      }
      default: {  // capability churn: derive a view and revoke it
        const CapId view = sys_.await_ok(
            client_->memory_diminish(buf_, 0, 4096, Perms::kNone));
        ASSERT_TRUE(sys_.await(client_->cap_revoke(view)).ok()) << "op " << op;
        break;
      }
    }
    ++ops_done;
  }
  sys_.loop().run();
  EXPECT_EQ(ops_done, 250);

  // Two-phase cleanup kept the tables bounded: the client controller's table holds live
  // objects only, not one stub per churn op (~60 revocations happened above).
  EXPECT_EQ(cc_->table().live_count(), cc_->table().total_count());
  EXPECT_LT(cc_->table().total_count(), 600u);
  EXPECT_EQ(cc_->pending_cleanups(), 0u);
  EXPECT_EQ(cs_->pending_cleanups(), 0u);
  // The peer-op dedup cache is bounded by construction (TTL eviction + hard cap), never by
  // operation count.
  for (Controller* c : sys_.controllers()) {
    EXPECT_LE(c->peer_links().completed_size(), PeerLinks::kCompletedCacheCap);
  }
}

TEST_F(SoakTest, SurvivesMidWorkloadProcessChurn) {
  // Spawn short-lived clients that do some work and crash; the long-lived client's work must
  // stay correct throughout.
  const auto stable = rand_bytes(8192);
  client_->write_mem(buf_addr_, stable);
  ASSERT_TRUE(sys_.await(FsClient::write(*client_, file_fs_, 0, 8192, buf_)).ok());

  for (int round = 0; round < 6; ++round) {
    Process& ephemeral = sys_.spawn("eph" + std::to_string(round), cn_, *cc_, 1 << 20);
    const CapId eopen =
        sys_.bootstrap_grant(fs_->process(), fs_->open_endpoint(), ephemeral).value();
    const CapId ebuf = sys_.await_ok(
        ephemeral.memory_create(ephemeral.alloc(8192), 8192, Perms::kReadWrite));
    auto f = sys_.await_ok(FsClient::open(ephemeral, eopen, "soak", false, round % 2 == 0));
    // Start a read, then crash at a random point.
    auto io = FsClient::read(ephemeral, f, 0, 8192, ebuf);
    sys_.loop().run(rng_.next_below(400));
    sys_.fail_process(ephemeral);
    sys_.loop().run();
  }

  // The survivor still reads the right bytes both ways.
  client_->write_mem(buf_addr_, std::vector<uint8_t>(8192, 0));
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, file_fs_, 0, 8192, buf_)).ok());
  EXPECT_EQ(client_->read_mem(buf_addr_, 8192), stable);
  client_->write_mem(buf_addr_, std::vector<uint8_t>(8192, 0));
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, file_dax_, 0, 8192, buf_)).ok());
  EXPECT_EQ(client_->read_mem(buf_addr_, 8192), stable);
}

// The dedup cache only fills on a lossy fabric (that is the only place replies can be lost and
// replayed), so the bounded-state soak for it runs over light loss with a shortened TTL: churn
// enough remote capability ops to cross many TTL windows and check the cache (a) never exceeds
// its hard cap at any step and (b) actually shrank back to the ops completed within the last
// TTL window — bounded by simulated time, not by how many ops ever ran.
TEST(SoakDedupCache, StaysBoundedUnderLossyPeerOpChurn) {
  SystemConfig cfg;
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_prob[0] = 0.005;
  plan.dup_prob[0] = 0.002;
  cfg.faults = plan;
  cfg.peer_op_batch_max = 4;  // the batched path shares the per-op dedup discipline
  cfg.peer_op_dedup_ttl = Duration::millis(2);
  System sys(cfg);
  const uint32_t n0 = sys.add_node("owner");
  const uint32_t n1 = sys.add_node("holder");
  Controller& c0 = sys.add_controller(n0, Loc::kHost);
  Controller& c1 = sys.add_controller(n1, Loc::kHost);
  Process& provider = sys.spawn("provider", n0, c0);
  Process& holder = sys.spawn("holder", n1, c1);

  const CapId root = sys.await_ok(provider.serve({}, [](Process::Received) {}));
  const CapId root_h = sys.bootstrap_grant(provider, root, holder).value();

  int completed = 0;
  for (int i = 0; i < 2000; ++i) {
    auto child = sys.await(holder.cap_create_revtree(root_h));
    if (child.ok()) {
      // Tolerate per-op timeouts under loss, like the chaos soak does; a revoke of a cap we
      // just created may still time out on the reply leg.
      if (sys.await(holder.cap_revoke(child.value())).ok()) {
        ++completed;
      }
    }
    for (Controller* c : sys.controllers()) {
      ASSERT_LE(c->peer_links().completed_size(), PeerLinks::kCompletedCacheCap)
          << "op " << i;
    }
  }
  sys.loop().run();
  ASSERT_GT(completed, 1000);
  // The run spanned many TTL windows, so eviction must have reclaimed the bulk of the
  // completed ops: what remains is one window's worth, far below everything that ever ran.
  EXPECT_GT(sys.loop().now().ns(), 10 * cfg.peer_op_dedup_ttl.ns());
  EXPECT_LT(c0.peer_links().completed_size(), static_cast<size_t>(completed));
  EXPECT_LE(c0.peer_links().completed_size(), PeerLinks::kCompletedCacheCap);
}

}  // namespace
}  // namespace fractos
