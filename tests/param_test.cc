// Parameterized sweeps (TEST_P): every combination of controller placement, node layout,
// transfer size and storage mode must move bytes correctly — the simulator's timing model
// must never compromise data integrity.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "src/core/system.h"
#include "src/services/fs.h"
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

// --- memory_copy matrix: size x placement x copy engine -------------------------------------

using CopyParam = std::tuple<uint64_t /*size*/, Loc /*ctrl*/, bool /*hw_copies*/>;

class CopyMatrixTest : public ::testing::TestWithParam<CopyParam> {};

TEST_P(CopyMatrixTest, CrossNodeCopyPreservesBytes) {
  const auto [size, loc, hw] = GetParam();
  SystemConfig cfg;
  cfg.hw_third_party_copies = hw;
  System sys(cfg);
  const uint32_t n0 = sys.add_node("n0");
  const uint32_t n1 = sys.add_node("n1");
  Controller& c0 = sys.add_controller(n0, loc);
  Controller& c1 = sys.add_controller(n1, loc);
  Process& a = sys.spawn("a", n0, c0, size + (1 << 20));
  Process& b = sys.spawn("b", n1, c1, size + (1 << 20));

  const auto data = random_bytes(size, size * 31 + static_cast<uint64_t>(loc) + (hw ? 7 : 0));
  const uint64_t src_addr = a.alloc(size);
  a.write_mem(src_addr, data);
  const CapId src = sys.await_ok(a.memory_create(src_addr, size, Perms::kRead));
  const uint64_t dst_addr = b.alloc(size);
  const CapId dst_b = sys.await_ok(b.memory_create(dst_addr, size, Perms::kReadWrite));
  const CapId dst = sys.bootstrap_grant(b, dst_b, a).value();

  const Time t0 = sys.loop().now();
  ASSERT_TRUE(sys.await(a.memory_copy(src, dst)).ok());
  const Duration took = sys.loop().now() - t0;
  EXPECT_EQ(b.read_mem(dst_addr, size), data);
  // Sanity on the timing model: never faster than the pure wire time.
  EXPECT_GE(took.ns(), transfer_time(size, sys.net().params().wire_bandwidth_bpns).ns());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CopyMatrixTest,
    ::testing::Combine(::testing::Values(1ull, 100ull, 4096ull, 65536ull, 1048576ull),
                       ::testing::Values(Loc::kHost, Loc::kSnic),
                       ::testing::Values(false, true)),
    [](const ::testing::TestParamInfo<CopyParam>& info) {
      return "s" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == Loc::kHost ? "_cpu" : "_snic") +
             (std::get<2>(info.param) ? "_hw" : "_bounce");
    });

// --- RPC matrix: placement x topology x argument size ---------------------------------------

using RpcParam = std::tuple<Loc, bool /*two nodes*/, uint64_t /*imm bytes*/>;

class RpcMatrixTest : public ::testing::TestWithParam<RpcParam> {};

TEST_P(RpcMatrixTest, ImmediatesArriveIntact) {
  const auto [loc, two_nodes, bytes] = GetParam();
  System sys;
  const uint32_t n0 = sys.add_node("n0");
  const uint32_t n1 = two_nodes ? sys.add_node("n1") : n0;
  Controller& c0 = sys.add_controller(n0, loc);
  Controller& c1 = two_nodes ? sys.add_controller(n1, loc) : c0;
  Process& client = sys.spawn("client", n0, c0);
  Process& server = sys.spawn("server", n1, c1);

  const auto payload = random_bytes(bytes, bytes + 5);
  std::vector<uint8_t> got;
  uint64_t got_tag = 0;
  const CapId ep = sys.await_ok(server.serve({}, [&](Process::Received r) {
    got_tag = r.imm_u64(0).value_or(0);
    if (bytes > 0) {
      const std::string at8 = r.imm_str(8).value_or("");
      got.assign(at8.begin(), at8.end());
    }
  }));
  const CapId ep_c = sys.bootstrap_grant(server, ep, client).value();
  Process::Args args;
  args.imm_u64(0, 0xfeedULL);
  if (bytes > 0) {
    args.imm(8, payload);
  }
  ASSERT_TRUE(sys.await(client.request_invoke(ep_c, std::move(args))).ok());
  sys.loop().run();
  EXPECT_EQ(got_tag, 0xfeedULL);
  EXPECT_EQ(got, payload);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RpcMatrixTest,
    ::testing::Combine(::testing::Values(Loc::kHost, Loc::kSnic),
                       ::testing::Values(false, true),
                       ::testing::Values(0ull, 16ull, 4096ull, 65536ull)),
    [](const ::testing::TestParamInfo<RpcParam>& info) {
      return std::string(std::get<0>(info.param) == Loc::kHost ? "cpu" : "snic") +
             (std::get<1>(info.param) ? "_2x" : "_1x") + "_b" +
             std::to_string(std::get<2>(info.param));
    });

// --- storage matrix: mode x io size x direction ---------------------------------------------

using StorageParam = std::tuple<bool /*dax*/, uint64_t /*io*/, bool /*unaligned*/>;

class StorageMatrixTest : public ::testing::TestWithParam<StorageParam> {
 protected:
  StorageMatrixTest() {
    cn_ = sys_.add_node("client");
    fn_ = sys_.add_node("fs");
    sn_ = sys_.add_node("storage");
    cc_ = &sys_.add_controller(cn_, Loc::kHost);
    cf_ = &sys_.add_controller(fn_, Loc::kHost);
    cs_ = &sys_.add_controller(sn_, Loc::kHost);
    nvme_ = std::make_unique<SimNvme>(&sys_.loop());
    block_ = std::make_unique<BlockAdaptor>(&sys_, sn_, *cs_, nvme_.get());
    FsService::Params p;
    p.extent_bytes = 256 << 10;  // force spanning for the larger I/Os
    fs_ = FsService::bootstrap(&sys_, fn_, *cf_, block_->process(), block_->mgmt_endpoint(), p);
    client_ = &sys_.spawn("client", cn_, *cc_, 4 << 20);
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

TEST_P(StorageMatrixTest, WriteReadRoundTrip) {
  const auto [dax, io, unaligned] = GetParam();
  const uint64_t file_size = 2 << 20;
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_, "f", file_size)).ok());
  auto f = sys_.await_ok(FsClient::open(*client_, open_, "f", /*rw=*/true, dax));
  const uint64_t off = unaligned ? 4096 + 513 : 4096;  // odd offsets must work too

  const auto data = random_bytes(io, io * 3 + (dax ? 1 : 0) + (unaligned ? 2 : 0));
  const uint64_t addr = client_->alloc(io);
  client_->write_mem(addr, data);
  const CapId buf = sys_.await_ok(client_->memory_create(addr, io, Perms::kReadWrite));

  ASSERT_TRUE(sys_.await(FsClient::write(*client_, f, off, io, buf)).ok());
  client_->write_mem(addr, std::vector<uint8_t>(io, 0));
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, f, off, io, buf)).ok());
  EXPECT_EQ(client_->read_mem(addr, io), data);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StorageMatrixTest,
    ::testing::Combine(::testing::Values(false, true),
                       ::testing::Values(512ull, 4096ull, 65536ull, 786432ull),
                       ::testing::Values(false, true)),
    [](const ::testing::TestParamInfo<StorageParam>& info) {
      return std::string(std::get<0>(info.param) ? "dax" : "fs") + "_io" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_unaligned" : "_aligned");
    });

// --- revocation-tree depth sweep --------------------------------------------------------------

class RevtreeDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(RevtreeDepthTest, RevokingRootKillsWholeChainLeafKeepsRest) {
  const int depth = GetParam();
  System sys;
  const uint32_t n0 = sys.add_node("n0");
  Controller& ctrl = sys.add_controller(n0, Loc::kHost);
  Process& p = sys.spawn("p", n0, ctrl);

  int deliveries = 0;
  const CapId root = sys.await_ok(p.serve({}, [&](Process::Received) { ++deliveries; }));
  std::vector<CapId> chain{root};
  for (int i = 0; i < depth; ++i) {
    chain.push_back(sys.await_ok(p.cap_create_revtree(chain.back())));
  }
  // Every link in the chain resolves to the same provider.
  for (CapId c : chain) {
    ASSERT_TRUE(sys.await(p.request_invoke(c)).ok());
  }
  sys.loop().run();
  EXPECT_EQ(deliveries, depth + 1);

  // Revoking the LEAF leaves the rest alive.
  ASSERT_TRUE(sys.await(p.cap_revoke(chain.back())).ok());
  sys.loop().run();
  EXPECT_FALSE(sys.await(p.request_invoke(chain.back())).ok());
  if (depth >= 1) {
    EXPECT_TRUE(sys.await(p.request_invoke(chain[chain.size() - 2])).ok());
  }

  // Revoking the ROOT kills everything.
  ASSERT_TRUE(sys.await(p.cap_revoke(root)).ok());
  sys.loop().run();
  for (CapId c : chain) {
    EXPECT_FALSE(sys.await(p.request_invoke(c)).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, RevtreeDepthTest, ::testing::Values(1, 2, 5, 16));

// --- congestion-window sweep -------------------------------------------------------------------

class CongestionSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CongestionSweepTest, AllDeliveriesCompleteUnderAnyWindow) {
  SystemConfig cfg;
  cfg.congestion_window = GetParam();
  System sys(cfg);
  const uint32_t n0 = sys.add_node("n0");
  const uint32_t n1 = sys.add_node("n1");
  Controller& c0 = sys.add_controller(n0, Loc::kHost);
  Controller& c1 = sys.add_controller(n1, Loc::kHost);
  Process& svc = sys.spawn("svc", n1, c1);
  Process& client = sys.spawn("client", n0, c0);
  uint64_t sum = 0;
  const CapId ep = sys.await_ok(svc.serve({}, [&](Process::Received r) {
    sum += r.imm_u64(0).value_or(0);
  }));
  const CapId ep_c = sys.bootstrap_grant(svc, ep, client).value();
  uint64_t expect = 0;
  for (uint64_t i = 1; i <= 50; ++i) {
    expect += i;
    client.request_invoke(ep_c, Process::Args{}.imm_u64(0, i));
  }
  sys.loop().run();
  EXPECT_EQ(sum, expect);  // windowing reorders nothing and loses nothing
}

INSTANTIATE_TEST_SUITE_P(Windows, CongestionSweepTest, ::testing::Values(1u, 2u, 7u, 1024u));

}  // namespace
}  // namespace fractos
