// One FS-protocol script, run against both FS backends: FsService over block-adaptor
// volumes, and BaselineFs over a BlockDevice. The client sees one protocol (fs.h); the
// script pins what both answer to it. It drives the request conventions directly where
// FsClient would refuse a malformed request before it reached the service.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "src/baselines/baseline_fs.h"
#include "src/baselines/block_device.h"
#include "src/services/block_adaptor.h"
#include "src/services/fs.h"

namespace fractos {
namespace {

enum class Backend { kVolumes, kDevice };

std::vector<uint8_t> pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 13 + (i >> 9));
  }
  return v;
}

// Small extents, chunks and slots, so that short I/Os cross every boundary.
template <typename P>
P small_params() {
  P p;
  p.extent_bytes = 64 << 10;
  p.stream_chunk = 16 << 10;
  p.slot_bytes = 32 << 10;
  p.staging_slots = 4;
  return p;
}

constexpr uint64_t kFileBytes = 200 << 10;  // four 64 KiB extents, the last one partial

class FsProtocolTest : public ::testing::TestWithParam<Backend> {
 protected:
  FsProtocolTest() {
    client_node_ = sys_.add_node("client");
    fs_node_ = sys_.add_node("fs");
    storage_node_ = sys_.add_node("storage");
    Controller& cc = sys_.add_controller(client_node_, Loc::kHost);
    Controller& cf = sys_.add_controller(fs_node_, Loc::kHost);
    nvme_ = std::make_unique<SimNvme>(&sys_.loop());
    Process* fs_proc = nullptr;
    if (GetParam() == Backend::kVolumes) {
      Controller& cs = sys_.add_controller(storage_node_, Loc::kHost);
      block_ = std::make_unique<BlockAdaptor>(&sys_, storage_node_, cs, nvme_.get());
      fs_ = FsService::bootstrap(&sys_, fs_node_, cf, block_->process(), block_->mgmt_endpoint(),
                                 small_params<FsService::Params>());
      fs_proc = &fs_->process();
      create_ep_ = fs_->create_endpoint();
      open_ep_ = fs_->open_endpoint();
    } else {
      device_ = std::make_unique<LocalNvmeDevice>(nvme_.get());
      baseline_ = std::make_unique<BaselineFs>(&sys_, fs_node_, cf, device_.get(),
                                               small_params<BaselineFs::Params>());
      fs_proc = &baseline_->process();
      create_ep_ = baseline_->create_endpoint();
      open_ep_ = baseline_->open_endpoint();
    }
    client_ = &sys_.spawn("client", client_node_, cc);
    create_ep_ = sys_.bootstrap_grant(*fs_proc, create_ep_, *client_).value();
    open_ep_ = sys_.bootstrap_grant(*fs_proc, open_ep_, *client_).value();
  }

  CapId make_buffer(uint64_t size, Perms perms = Perms::kReadWrite) {
    last_addr_ = client_->alloc(size);
    return sys_.await_ok(client_->memory_create(last_addr_, size, perms));
  }

  // One fs_read / fs_write request as the wire convention spells it, with a fresh
  // ok/error continuation pair: the service's own answer, with no FsClient check in front.
  Status raw_io(CapId ep, uint64_t off, uint64_t size, CapId mem) {
    std::optional<Status> got;
    const CapId ok = sys_.await_ok(
        client_->serve({}, [&got](Process::Received) { got = ok_status(); }));
    const CapId err = sys_.await_ok(client_->serve({}, [&got](Process::Received r) {
      got = Status(static_cast<ErrorCode>(r.imm_u64(0).value_or(0)));
    }));
    const Status invoked = sys_.await(client_->request_invoke(
        ep, Process::Args{}.imm_u64(0, off).imm_u64(8, size).cap(mem).cap(ok).cap(err)));
    if (!invoked.ok()) {
      return invoked;
    }
    EXPECT_TRUE(sys_.loop().run_until([&got]() { return got.has_value(); }));
    return got.value_or(Status(ErrorCode::kInternal));
  }

  System sys_;
  uint32_t client_node_ = 0, fs_node_ = 0, storage_node_ = 0;
  std::unique_ptr<SimNvme> nvme_;
  std::unique_ptr<BlockAdaptor> block_;
  std::unique_ptr<FsService> fs_;
  std::unique_ptr<LocalNvmeDevice> device_;
  std::unique_ptr<BaselineFs> baseline_;
  Process* client_ = nullptr;
  CapId create_ep_ = kInvalidCap, open_ep_ = kInvalidCap;
  uint64_t last_addr_ = 0;
};

TEST_P(FsProtocolTest, Script) {
  // create, and a duplicate name.
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "f", kFileBytes)).ok());
  EXPECT_EQ(sys_.await(FsClient::create(*client_, create_ep_, "f", 4096)).error(),
            ErrorCode::kAlreadyExists);

  // RW open: the reply carries one fs_read and one fs_write endpoint.
  const auto rw = sys_.await_ok(FsClient::open(*client_, open_ep_, "f", true, false));
  EXPECT_EQ(rw.size, kFileBytes);
  EXPECT_EQ(rw.extent_bytes, 64u << 10);
  ASSERT_EQ(rw.read_eps.size(), 1u);
  ASSERT_EQ(rw.write_eps.size(), 1u);

  // A write that crosses 16 KiB stream chunks and, on volumes, the 64 KiB extent edge.
  const uint64_t w_off = 40 << 10;
  const uint64_t w_size = 100 << 10;
  const auto data = pattern(w_size, 5);
  const CapId wbuf = make_buffer(w_size);
  client_->write_mem(last_addr_, data);
  ASSERT_TRUE(sys_.await(FsClient::write(*client_, rw, w_off, w_size, wbuf)).ok());

  // RO open: one fs_read endpoint and no fs_write endpoint.
  const auto ro = sys_.await_ok(FsClient::open(*client_, open_ep_, "f", false, false));
  ASSERT_EQ(ro.read_eps.size(), 1u);
  EXPECT_TRUE(ro.write_eps.empty());

  // Read back a window that starts mid-chunk inside the write and crosses two extent edges.
  const uint64_t r_off = 50 << 10;
  const uint64_t r_size = 90 << 10;
  const CapId rbuf = make_buffer(r_size);
  const uint64_t raddr = last_addr_;
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, ro, r_off, r_size, rbuf)).ok());
  const std::vector<uint8_t> want(data.begin() + (r_off - w_off),
                                  data.begin() + (r_off - w_off + r_size));
  EXPECT_EQ(client_->read_mem(raddr, r_size), want);

  // A write through the RO open cannot reach the service: the open handed out no write
  // endpoint, so FsClient refuses it.
  EXPECT_EQ(sys_.await(FsClient::write(*client_, ro, 0, 4096, wbuf)).error(),
            ErrorCode::kInvalidArgument);
  // Stage 2 of a read copies into the client's buffer: one it may not write is refused.
  const CapId ro_buf = make_buffer(4096, Perms::kRead);
  EXPECT_EQ(sys_.await(FsClient::read(*client_, ro, 0, 4096, ro_buf)).error(),
            ErrorCode::kPermissionDenied);

  // The service's argument checks: zero-length, past end of file, and a buffer shorter
  // than the I/O all fail through the error continuation.
  const CapId small = make_buffer(4096);
  EXPECT_EQ(raw_io(ro.read_eps[0], 0, 0, small).error(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(raw_io(ro.read_eps[0], kFileBytes - 2048, 4096, wbuf).error(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(raw_io(ro.read_eps[0], 0, 8192, small).error(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(raw_io(rw.write_eps[0], 0, 8192, small).error(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(raw_io(ro.read_eps[0], kFileBytes - 4096, 4096, small).ok());

  // Close revokes the open's endpoints: later I/O through them is refused. By the time the
  // close replies, the revocation's cleanup has purged the client's copies too, so the
  // refusal names no live capability rather than a revoked one.
  ASSERT_TRUE(sys_.await(FsClient::close(*client_, rw)).ok());
  EXPECT_EQ(sys_.await(FsClient::read(*client_, rw, 0, 4096, small)).error(),
            ErrorCode::kInvalidCapability);
  EXPECT_EQ(sys_.await(FsClient::write(*client_, rw, 0, 4096, small)).error(),
            ErrorCode::kInvalidCapability);
  EXPECT_EQ(sys_.await(FsClient::close(*client_, rw)).error(), ErrorCode::kInvalidCapability);
  // The RO open is independent of the closed one.
  EXPECT_TRUE(sys_.await(FsClient::read(*client_, ro, r_off, 4096, small)).ok());
  EXPECT_EQ(client_->read_mem(last_addr_, 4096),
            std::vector<uint8_t>(want.begin(), want.begin() + 4096));

  // DAX: volumes hand out per-extent children; the device backend has no DAX mode.
  auto dax = sys_.await(FsClient::open(*client_, open_ep_, "f", false, /*dax=*/true));
  if (GetParam() == Backend::kDevice) {
    EXPECT_EQ(dax.error(), ErrorCode::kUnimplemented);
  } else {
    ASSERT_TRUE(dax.ok());
    EXPECT_EQ(dax.value().read_eps.size(), 4u);
    const CapId dbuf = make_buffer(r_size);
    ASSERT_TRUE(sys_.await(FsClient::read(*client_, dax.value(), r_off, r_size, dbuf)).ok());
    EXPECT_EQ(client_->read_mem(last_addr_, r_size), want);
  }
  // An open of a name that was never created fails the same way on both.
  EXPECT_EQ(sys_.await(FsClient::open(*client_, open_ep_, "nope", false, false)).error(),
            ErrorCode::kNotFound);
}

TEST_P(FsProtocolTest, WrappingOffsetIsRefused) {
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "f", kFileBytes)).ok());
  const auto ro = sys_.await_ok(FsClient::open(*client_, open_ep_, "f", false, false));
  // offset + size wraps past 2^64 to 4096: inside the file, were the sum trusted.
  const CapId buf = make_buffer(8192);
  EXPECT_EQ(raw_io(ro.read_eps[0], ~0ull - 4095, 8192, buf).error(),
            ErrorCode::kInvalidArgument);
}

// A size near 2^64 must not round up past 2^64: the volumes' extent count and the device's
// 4 KiB rounding would both wrap, to a file with no storage behind it, or one sharing the
// next file's region. Such a create is refused, and the files after it keep their bytes.
TEST_P(FsProtocolTest, WrappingSizeIsRefused) {
  EXPECT_EQ(sys_.await(FsClient::create(*client_, create_ep_, "big", ~0ull)).error(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(sys_.await(FsClient::open(*client_, open_ep_, "big", false, false)).error(),
            ErrorCode::kNotFound);

  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "f", kFileBytes)).ok());
  ASSERT_TRUE(sys_.await(FsClient::create(*client_, create_ep_, "g", kFileBytes)).ok());
  const auto f = sys_.await_ok(FsClient::open(*client_, open_ep_, "f", true, false));
  const auto g = sys_.await_ok(FsClient::open(*client_, open_ep_, "g", true, false));
  const auto a = pattern(8192, 1);
  const auto b = pattern(8192, 2);
  const CapId buf = make_buffer(8192);
  client_->write_mem(last_addr_, a);
  ASSERT_TRUE(sys_.await(FsClient::write(*client_, f, 0, 8192, buf)).ok());
  client_->write_mem(last_addr_, b);
  ASSERT_TRUE(sys_.await(FsClient::write(*client_, g, 0, 8192, buf)).ok());
  ASSERT_TRUE(sys_.await(FsClient::read(*client_, f, 0, 8192, buf)).ok());
  EXPECT_EQ(client_->read_mem(last_addr_, 8192), a);
}

INSTANTIATE_TEST_SUITE_P(Backends, FsProtocolTest,
                         ::testing::Values(Backend::kVolumes, Backend::kDevice),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kVolumes ? "Volumes" : "Device";
                         });

}  // namespace
}  // namespace fractos
