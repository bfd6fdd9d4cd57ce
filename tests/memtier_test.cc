// Far-memory tier tests (DESIGN.md §4k): MemPoolService attach semantics, FarMemClient
// dual-granularity caching and write-through, streak prefetch, span/tax attribution of
// faults, and the translation-placement latency ordering.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/system.h"
#include "src/services/farmem.h"
#include "src/services/mempool.h"
#include "src/sim/span.h"
#include "src/sim/tax_report.h"

namespace fractos {
namespace {

constexpr uint64_t kSeg = 64 << 10;  // 16 pages
constexpr uint64_t kLine = 64;
constexpr uint64_t kPage = 4096;

uint8_t expected_byte(uint64_t offset) {
  return static_cast<uint8_t>(offset * 131 + 7);
}

// Client on node 0 (rack 0), memory node 2 (rack 1): every fault crosses the bisection,
// with the hot/bulk lane partition active (bench_memtier's shape, scaled down).
class MemtierTest : public ::testing::Test {
 protected:
  MemtierTest() : sys_(make_config()) {
    for (const char* name : {"mt-client", "mt-idle0", "mt-mem", "mt-idle1"}) {
      sys_.add_node(name);
    }
    client_ctrl_ = &sys_.add_controller(0, Loc::kHost);
    Controller& mem_ctrl = sys_.add_controller(2, Loc::kHost);
    pool_ = MemPoolService::bootstrap(&sys_, 2, mem_ctrl, kSeg + 4 * kPage);
    client_ = &sys_.spawn("mt-client", 0, *client_ctrl_, 1 << 20);
    attach_ep_ =
        sys_.bootstrap_grant(pool_->process(), pool_->attach_endpoint(), *client_).value();
    seg_ = sys_.await_ok(MemPoolClient::attach(*client_, attach_ep_, "seg", kSeg));
    PoolBytes& bytes = sys_.net().node(2).pool(pool_->pool());
    for (uint64_t i = 0; i < kSeg; ++i) {
      bytes[seg_.addr + i] = expected_byte(i);
    }
  }

  static SystemConfig make_config() {
    SystemConfig cfg;
    cfg.topology = TopologySpec::fat_tree(2, 2);
    cfg.topology.sw.hot_lane_share = 0.3;
    return cfg;
  }

  FarMemClient::Config config(bool dual, XlatePlacement placement = XlatePlacement::kOwnerCpu) {
    FarMemClient::Config cfg;
    cfg.dual_granularity = dual;
    cfg.placement = placement;
    return cfg;
  }

  std::vector<uint8_t> read_sync(FarMemClient& fm, uint64_t offset, uint64_t size) {
    std::vector<uint8_t> out;
    bool done = false;
    fm.read(offset, size, [&](Result<std::vector<uint8_t>>&& r) {
      ASSERT_TRUE(r.ok());
      out = std::move(r.value());
      done = true;
    });
    EXPECT_TRUE(sys_.loop().run_until([&]() { return done; }));
    return out;
  }

  void write_sync(FarMemClient& fm, uint64_t offset, std::vector<uint8_t> bytes) {
    bool done = false;
    fm.write(offset, std::move(bytes), [&](Status s) {
      ASSERT_TRUE(s.ok());
      done = true;
    });
    EXPECT_TRUE(sys_.loop().run_until([&]() { return done; }));
  }

  int64_t miss_latency_ns(FarMemClient& fm, uint64_t offset) {
    const Time t0 = sys_.loop().now();
    Time t1 = t0;
    bool done = false;
    fm.read(offset, kLine, [&](Result<std::vector<uint8_t>>&& r) {
      ASSERT_TRUE(r.ok());
      t1 = sys_.loop().now();
      done = true;
    });
    EXPECT_TRUE(sys_.loop().run_until([&]() { return done; }));
    return (t1 - t0).ns();
  }

  System sys_;
  std::unique_ptr<MemPoolService> pool_;
  Process* client_ = nullptr;
  Controller* client_ctrl_ = nullptr;
  CapId attach_ep_ = kInvalidCap;
  FarMemSegment seg_;
};

TEST_F(MemtierTest, AttachExportsAlignedCapabilityBackedSegments) {
  EXPECT_EQ(seg_.size, kSeg);
  EXPECT_EQ(seg_.addr % kPage, 0u);
  EXPECT_NE(seg_.mem, kInvalidCap);
  EXPECT_EQ(pool_->num_segments(), 1u);
  EXPECT_GE(pool_->bytes_reserved(), kSeg);

  // Same name is a rendezvous: the SAME segment comes back (any size that fits).
  FarMemSegment again = sys_.await_ok(MemPoolClient::attach(*client_, attach_ep_, "seg", kSeg));
  EXPECT_EQ(again.addr, seg_.addr);
  EXPECT_EQ(again.size, seg_.size);
  EXPECT_EQ(pool_->num_segments(), 1u);
  FarMemSegment part =
      sys_.await_ok(MemPoolClient::attach(*client_, attach_ep_, "seg", kSeg / 2));
  EXPECT_EQ(part.addr, seg_.addr);
  EXPECT_EQ(part.size, seg_.size);

  // Asking for MORE than the existing segment holds is a conflict, not a grow.
  Result<FarMemSegment> grow =
      sys_.await(MemPoolClient::attach(*client_, attach_ep_, "seg", 2 * kSeg));
  EXPECT_FALSE(grow.ok());

  // A second name is placed past the first segment, page-aligned.
  FarMemSegment other =
      sys_.await_ok(MemPoolClient::attach(*client_, attach_ep_, "other", kPage));
  EXPECT_GE(other.addr, seg_.addr + seg_.size);
  EXPECT_EQ(other.addr % kPage, 0u);
  EXPECT_EQ(pool_->num_segments(), 2u);

  // Capacity exhaustion is a clean error.
  Result<FarMemSegment> huge =
      sys_.await(MemPoolClient::attach(*client_, attach_ep_, "huge", 64 * kSeg));
  EXPECT_FALSE(huge.ok());
  EXPECT_EQ(pool_->num_segments(), 2u);
}

TEST_F(MemtierTest, DualModeDemandFetchesSingleCachelines) {
  FarMemClient fm(&sys_, *client_, *client_ctrl_, seg_.mem, config(/*dual=*/true));
  const uint64_t off = 3 * kLine;
  std::vector<uint8_t> v = read_sync(fm, off, kLine);
  ASSERT_EQ(v.size(), kLine);
  for (uint64_t i = 0; i < kLine; ++i) {
    EXPECT_EQ(v[i], expected_byte(off + i));
  }
  EXPECT_EQ(fm.stats().demand_fetches, 1u);
  EXPECT_EQ(fm.stats().hot_bytes, kLine);
  EXPECT_EQ(fm.stats().bulk_bytes, 0u);
  EXPECT_EQ(fm.cached_lines(), 1u);
  EXPECT_EQ(fm.cached_pages(), 0u);

  // Re-reading the line — including a sub-range — hits locally: no new fabric bytes.
  const uint64_t wire_before = sys_.net().counters().total_bytes();
  std::vector<uint8_t> sub = read_sync(fm, off + 8, 8);
  ASSERT_EQ(sub.size(), 8u);
  EXPECT_EQ(sub[0], expected_byte(off + 8));
  EXPECT_EQ(fm.stats().line_hits, 1u);
  EXPECT_EQ(fm.stats().demand_fetches, 1u);
  EXPECT_EQ(sys_.net().counters().total_bytes(), wire_before);
}

// A tenant's out-of-range access is refused with kOutOfRange through `done`, after the call
// returns, and moves nothing: past the segment, wrapping past 2^64, across a cacheline, or
// empty.
TEST_F(MemtierTest, OutOfRangeAccessIsRefusedThroughDone) {
  FarMemClient fm(&sys_, *client_, *client_ctrl_, seg_.mem, config(/*dual=*/true));
  const uint64_t wire_before = sys_.net().counters().total_bytes();
  const std::pair<uint64_t, uint64_t> bad[] = {
      {kSeg, 8}, {kSeg - 4, 8}, {~0ull - 3, 8}, {kLine - 4, 8}, {0, 0}};
  for (const auto& [off, size] : bad) {
    std::optional<ErrorCode> read_error;
    fm.read(off, size, [&](Result<std::vector<uint8_t>>&& r) { read_error = r.error(); });
    std::optional<Status> wrote;
    fm.write(off, std::vector<uint8_t>(size, 7), [&](Status st) { wrote = st; });
    EXPECT_FALSE(read_error.has_value());
    EXPECT_FALSE(wrote.has_value());
    sys_.loop().run();
    EXPECT_EQ(read_error, ErrorCode::kOutOfRange) << off << "+" << size;
    ASSERT_TRUE(wrote.has_value());
    EXPECT_EQ(wrote->error(), ErrorCode::kOutOfRange) << off << "+" << size;
  }
  EXPECT_EQ(fm.stats().accesses, 0u);
  EXPECT_EQ(fm.stats().write_throughs, 0u);
  EXPECT_EQ(sys_.net().counters().total_bytes(), wire_before);
}

TEST_F(MemtierTest, PageOnlyBaselineMovesWholePages) {
  FarMemClient fm(&sys_, *client_, *client_ctrl_, seg_.mem, config(/*dual=*/false));
  std::vector<uint8_t> v = read_sync(fm, 5 * kLine, kLine);
  EXPECT_EQ(v[0], expected_byte(5 * kLine));
  EXPECT_EQ(fm.stats().demand_fetches, 1u);
  EXPECT_EQ(fm.stats().bulk_bytes, kPage);
  EXPECT_EQ(fm.stats().hot_bytes, 0u);
  EXPECT_EQ(fm.cached_pages(), 1u);
  EXPECT_EQ(fm.cached_lines(), 0u);
  // A different line of the same page is now a local page hit.
  read_sync(fm, 9 * kLine, kLine);
  EXPECT_EQ(fm.stats().page_hits, 1u);
  EXPECT_EQ(fm.stats().demand_fetches, 1u);
}

TEST_F(MemtierTest, WriteThroughUpdatesCacheAndRemoteSegment) {
  FarMemClient fm(&sys_, *client_, *client_ctrl_, seg_.mem, config(/*dual=*/true));
  const uint64_t off = 7 * kLine;
  read_sync(fm, off, kLine);  // cache the line
  write_sync(fm, off + 4, {0xAA, 0xBB, 0xCC});
  EXPECT_EQ(fm.stats().write_throughs, 1u);

  // The cached copy serves the new bytes...
  std::vector<uint8_t> v = read_sync(fm, off, kLine);
  EXPECT_EQ(v[4], 0xAA);
  EXPECT_EQ(v[5], 0xBB);
  EXPECT_EQ(v[6], 0xCC);
  EXPECT_EQ(v[7], expected_byte(off + 7));

  // ...and so does the remote pool (write-through, not write-back), which a second,
  // cold-cached client observes over the fabric.
  const PoolBytes& bytes = sys_.net().node(2).pool(pool_->pool());
  EXPECT_EQ(bytes[seg_.addr + off + 4], 0xAA);
  FarMemClient cold(&sys_, *client_, *client_ctrl_, seg_.mem, config(/*dual=*/true));
  std::vector<uint8_t> w = read_sync(cold, off, kLine);
  EXPECT_EQ(w[4], 0xAA);
  EXPECT_EQ(w[6], 0xCC);
}

TEST_F(MemtierTest, SequentialStreakArmsPagePrefetch) {
  FarMemClient fm(&sys_, *client_, *client_ctrl_, seg_.mem, config(/*dual=*/true));
  // Scan two pages' worth of cachelines. The streak detector arms after 4 consecutive
  // lines, prefetching the NEXT page on the bulk lane, so most of page 1 is served locally.
  for (uint64_t line = 0; line < 2 * (kPage / kLine); ++line) {
    read_sync(fm, line * kLine, kLine);
  }
  const FarMemClient::Stats& s = fm.stats();
  EXPECT_GT(s.prefetches, 0u);
  EXPECT_GT(s.page_hits, 0u);
  EXPECT_GT(s.bulk_bytes, 0u);
  // Page 0 has no preceding streak, so all of its lines demand-miss; page 1 is entirely
  // covered by the prefetch armed during the page-0 scan.
  EXPECT_EQ(s.demand_fetches, kPage / kLine);
  EXPECT_EQ(s.accesses, 2 * (kPage / kLine));
}

TEST_F(MemtierTest, FaultSpansLandInFarmemAndTranslationBuckets) {
  SpanTracer tracer;
  sys_.loop().set_span_tracer(&tracer);
  FarMemClient fm(&sys_, *client_, *client_ctrl_, seg_.mem, config(/*dual=*/true));

  const uint64_t trace = tracer.start_trace("memtier-test", "miss", sys_.loop().now());
  {
    SpanScope scope(tracer.context_of(trace));
    read_sync(fm, 11 * kLine, kLine);
  }
  tracer.end(trace, sys_.loop().now());
  sys_.loop().set_span_tracer(nullptr);

  const TaxBreakdown bd = fold_tax(tracer, trace);
  EXPECT_GT(bd.total_ns, 0);
  // Every nanosecond of the access is attributed to exactly one bucket.
  EXPECT_EQ(bd.sum_ns(), bd.total_ns);
  EXPECT_GT(bd.ns[static_cast<size_t>(TaxBucket::kTranslation)], 0);
  EXPECT_GT(bd.ns[static_cast<size_t>(TaxBucket::kFabric)], 0);
}

TEST_F(MemtierTest, TranslationPlacementOrdersTorBelowCpuBelowSnic) {
  FarMemClient cpu(&sys_, *client_, *client_ctrl_, seg_.mem,
                   config(/*dual=*/true, XlatePlacement::kOwnerCpu));
  FarMemClient snic(&sys_, *client_, *client_ctrl_, seg_.mem,
                    config(/*dual=*/true, XlatePlacement::kSnic));
  FarMemClient tor(&sys_, *client_, *client_ctrl_, seg_.mem,
                   config(/*dual=*/true, XlatePlacement::kTor));
  // Distinct cold lines: each client takes exactly one demand miss.
  const int64_t lat_cpu = miss_latency_ns(cpu, 100 * kLine);
  const int64_t lat_snic = miss_latency_ns(snic, 200 * kLine);
  const int64_t lat_tor = miss_latency_ns(tor, 300 * kLine);
  // In-switch translation skips the round trip entirely; the sNIC answers the round trip
  // with slower per-op compute than the host CPU (MIND's placement trade-off).
  EXPECT_LT(lat_tor, lat_cpu);
  EXPECT_LT(lat_cpu, lat_snic);
}

// Tenant B asks for 2^64 - 256 KiB + 4097 bytes right after tenant A's 256 KiB segment:
// base + size wraps past 2^64 to 4097. The attach must be refused without moving where the
// pool places the next segment, so B's next segment cannot land inside A's.
TEST(MemPoolIsolation, WrappingAttachCannotSteerTheNextSegmentIntoAnother) {
  System sys;
  const uint32_t cn = sys.add_node("client");
  const uint32_t mn = sys.add_node("mem");
  Controller& cc = sys.add_controller(cn, Loc::kHost);
  Controller& mc = sys.add_controller(mn, Loc::kHost);
  auto pool = MemPoolService::bootstrap(&sys, mn, mc, 1 << 20);
  Process& a = sys.spawn("tenant-a", cn, cc);
  Process& b = sys.spawn("tenant-b", cn, cc);
  const CapId a_ep = sys.bootstrap_grant(pool->process(), pool->attach_endpoint(), a).value();
  const CapId b_ep = sys.bootstrap_grant(pool->process(), pool->attach_endpoint(), b).value();

  const FarMemSegment sa = sys.await_ok(MemPoolClient::attach(a, a_ep, "a", 256 << 10));
  const uint64_t huge = ~0ull - (256 << 10) + 4098;  // 2^64 - 256 KiB + 4097
  EXPECT_FALSE(sys.await(MemPoolClient::attach(b, b_ep, "b-huge", huge)).ok());
  const FarMemSegment sb = sys.await_ok(MemPoolClient::attach(b, b_ep, "b", 64 << 10));
  EXPECT_TRUE(sb.addr >= sa.addr + sa.size || sb.addr + sb.size <= sa.addr)
      << "a=[" << sa.addr << ", +" << sa.size << ") b=[" << sb.addr << ", +" << sb.size << ")";
  EXPECT_EQ(pool->bytes_reserved(), (256u << 10) + (64u << 10));
}

// Two tenants attach one new name at once: the second attach arrives while the first one's
// memory_create_in is still in flight. Both must get the one segment, and the pool must
// reserve its range once.
TEST(MemPoolIsolation, ConcurrentAttachesOfANewNameShareOneSegment) {
  System sys;
  const uint32_t cn = sys.add_node("client");
  const uint32_t mn = sys.add_node("mem");
  Controller& cc = sys.add_controller(cn, Loc::kHost);
  Controller& mc = sys.add_controller(mn, Loc::kHost);
  auto pool = MemPoolService::bootstrap(&sys, mn, mc, 1 << 20);
  Process& a = sys.spawn("tenant-a", cn, cc);
  Process& b = sys.spawn("tenant-b", cn, cc);
  const CapId a_ep = sys.bootstrap_grant(pool->process(), pool->attach_endpoint(), a).value();
  const CapId b_ep = sys.bootstrap_grant(pool->process(), pool->attach_endpoint(), b).value();

  auto fa = MemPoolClient::attach(a, a_ep, "shared", 64 << 10);
  auto fb = MemPoolClient::attach(b, b_ep, "shared", 64 << 10);
  const FarMemSegment sa = sys.await_ok(std::move(fa));
  const FarMemSegment sb = sys.await_ok(std::move(fb));
  EXPECT_EQ(sa.addr, sb.addr);
  EXPECT_EQ(sa.size, sb.size);
  EXPECT_EQ(pool->num_segments(), 1u);
  EXPECT_EQ(pool->bytes_reserved(), 64u << 10);
}

// The pool Process dies while a segment's creation is in flight: the creation fails, and the
// name and its range are released.
TEST(MemPoolIsolation, FailedCreationReleasesTheNameAndItsRange) {
  System sys;
  const uint32_t cn = sys.add_node("client");
  const uint32_t mn = sys.add_node("mem");
  Controller& cc = sys.add_controller(cn, Loc::kHost);
  Controller& mc = sys.add_controller(mn, Loc::kHost);
  auto pool = MemPoolService::bootstrap(&sys, mn, mc, 1 << 20);
  Process& a = sys.spawn("tenant-a", cn, cc);
  const CapId a_ep = sys.bootstrap_grant(pool->process(), pool->attach_endpoint(), a).value();

  auto attach = MemPoolClient::attach(a, a_ep, "shared", 64 << 10);
  ASSERT_TRUE(sys.loop().run_until([&]() { return pool->bytes_reserved() > 0; }));
  sys.fail_process(pool->process());
  EXPECT_EQ(pool->num_segments(), 0u);
  EXPECT_EQ(pool->bytes_reserved(), 0u);
}

}  // namespace
}  // namespace fractos
