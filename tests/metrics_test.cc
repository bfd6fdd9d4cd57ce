// Golden-snapshot test for the MetricsRegistry: a recorded storage workload on a clean
// fabric must reproduce the checked-in metrics snapshot key-for-key (the registry's
// serialize() is sorted and deterministic by construction). Refresh after an intentional
// instrumentation change with:
//
//   ./tests/metrics_test --update
//
// This binary has its own main() (gtest without gtest_main) so it can take the flag.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "src/services/block_adaptor.h"
#include "src/services/fs.h"
#include "src/sim/event_loop.h"
#include "src/sim/metrics.h"

namespace {
bool g_update = false;
}  // namespace

namespace fractos {
namespace {

constexpr uint64_t kFileBytes = 1 << 20;
constexpr uint64_t kBufBytes = 64 << 10;

// Fixed (not randomized) workload: the golden file pins its exact metric values.
std::string run_recorded_workload() {
  MetricsRegistry metrics;
  System sys;
  const uint32_t cn = sys.add_node("client");
  const uint32_t fn = sys.add_node("fs");
  const uint32_t sn = sys.add_node("storage");
  Controller& cc = sys.add_controller(cn, Loc::kHost);
  Controller& cf = sys.add_controller(fn, Loc::kHost);
  Controller& cs = sys.add_controller(sn, Loc::kHost);
  auto nvme = std::make_unique<SimNvme>(&sys.loop());
  auto block = std::make_unique<BlockAdaptor>(&sys, sn, cs, nvme.get());
  auto fs = FsService::bootstrap(&sys, fn, cf, block->process(), block->mgmt_endpoint());
  Process& client = sys.spawn("client", cn, cc, 16 << 20);
  const CapId create_ep = sys.bootstrap_grant(fs->process(), fs->create_endpoint(), client).value();
  const CapId open_ep = sys.bootstrap_grant(fs->process(), fs->open_endpoint(), client).value();
  FRACTOS_CHECK(sys.await(FsClient::create(client, create_ep, "f", kFileBytes)).ok());
  FsClient::OpenFile file_fs = sys.await_ok(FsClient::open(client, open_ep, "f", true, false));
  FsClient::OpenFile file_dax = sys.await_ok(FsClient::open(client, open_ep, "f", true, true));
  const uint64_t buf_addr = client.alloc(kBufBytes);
  const CapId buf = sys.await_ok(client.memory_create(buf_addr, kBufBytes, Perms::kReadWrite));

  // Record the workload only (not the bootstrap), so the golden captures steady-state
  // instrumentation rather than setup churn.
  sys.loop().set_metrics(&metrics);
  for (int op = 0; op < 8; ++op) {
    const uint64_t io = 4096ull << (op % 3);
    const uint64_t off = static_cast<uint64_t>(op) * 65536;
    const auto& file = (op % 2 == 0) ? file_fs : file_dax;
    FRACTOS_CHECK(sys.await(FsClient::write(client, file, off, io, buf)).ok());
    FRACTOS_CHECK(sys.await(FsClient::read(client, file, off, io, buf)).ok());
  }
  sys.loop().run();
  sys.loop().set_metrics(nullptr);
  FRACTOS_CHECK(!metrics.empty());
  return metrics.serialize();
}

TEST(MetricsGolden, SnapshotMatchesGoldenFile) {
  const std::string got = run_recorded_workload();
  const std::string path = std::string(FRACTOS_GOLDEN_DIR) + "/metrics_snapshot.txt";
  if (g_update) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_LOG_(INFO) << "golden refreshed: " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run `metrics_test --update` to create it";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "metrics snapshot drifted from the golden file; if the change is intentional, "
         "refresh with `metrics_test --update`";
}

TEST(MetricsGolden, SnapshotIsDeterministic) {
  EXPECT_EQ(run_recorded_workload(), run_recorded_workload());
}

// A component with one always-on counter, published under `key`.
struct Counted {
  Counted(EventLoop* loop, std::string k)
      : key(std::move(k)), publisher(loop, [this](MetricSink& out) { out.emit(key, n); }) {}
  std::string key;
  uint64_t n = 0;
  MetricsPublisher publisher;
};

// The pull window: each case below fails against a registry that simply reads the
// publishers' cumulative values.
TEST(MetricsPullWindow, AttachedMidRunReportsOnlyTheWindow) {
  EventLoop loop;
  Counted c(&loop, "t.ops");
  c.n = 5;  // before the window
  MetricsRegistry m;
  loop.set_metrics(&m);
  c.n += 3;
  loop.set_metrics(nullptr);
  c.n += 10;  // after the window
  EXPECT_EQ(m.value("t.ops"), 3);
  EXPECT_EQ(m.serialize(), "t.ops 3\n");
}

TEST(MetricsPullWindow, ValueIsLiveWhileAttached) {
  EventLoop loop;
  Counted c(&loop, "t.ops");
  c.n = 10;
  MetricsRegistry m;
  loop.set_metrics(&m);
  c.n += 4;
  EXPECT_EQ(m.value("t.ops"), 4);
  c.n += 2;
  EXPECT_EQ(m.snapshot().at("t.ops"), 6);
  loop.set_metrics(nullptr);
  EXPECT_EQ(m.value("t.ops"), 6);
}

TEST(MetricsPullWindow, PublishersOfOneKeySum) {
  EventLoop loop;
  Counted a(&loop, "t.ops");
  Counted b(&loop, "t.ops");
  a.n = 2;
  MetricsRegistry m;
  loop.set_metrics(&m);
  a.n += 2;
  b.n += 3;
  loop.set_metrics(nullptr);
  EXPECT_EQ(m.value("t.ops"), 5);
}

TEST(MetricsPullWindow, PublisherDestroyedWhileAttachedKeepsItsDelta) {
  EventLoop loop;
  auto early = std::make_unique<Counted>(&loop, "t.ops");
  early->n = 7;
  MetricsRegistry m;
  loop.set_metrics(&m);
  early->n += 2;
  early.reset();
  EXPECT_EQ(m.value("t.ops"), 2);
  // A publisher born inside the window counts from zero, and keeps its delta too.
  auto late = std::make_unique<Counted>(&loop, "t.ops");
  late->n = 4;
  late.reset();
  loop.set_metrics(nullptr);
  EXPECT_EQ(m.value("t.ops"), 6);
}

TEST(MetricsPullWindow, CounterThatDidNotMoveProducesNoKey) {
  EventLoop loop;
  Counted idle(&loop, "t.idle");
  Counted busy(&loop, "t.busy");
  idle.n = 9;
  MetricsRegistry m;
  loop.set_metrics(&m);
  ++busy.n;
  loop.set_metrics(nullptr);
  EXPECT_EQ(m.snapshot().count("t.idle"), 0u);
  EXPECT_EQ(m.serialize(), "t.busy 1\n");
}

TEST(MetricsPullWindow, RegistryDestroyedWhileAttachedDetaches) {
  EventLoop loop;
  Counted c(&loop, "t.ops");
  {
    MetricsRegistry m;
    loop.set_metrics(&m);
    ++c.n;
  }
  EXPECT_EQ(loop.metrics(), nullptr);
  ++c.n;  // nothing attached: no registry to touch
}

TEST(MetricsPullWindow, LoopMayGoBeforeItsPublishersAndRegistry) {
  auto loop = std::make_unique<EventLoop>();
  Counted c(loop.get(), "t.ops");
  MetricsRegistry m;
  loop->set_metrics(&m);
  ++c.n;
  loop.reset();  // ends the attachment; `c` and `m` outlive the loop
  ++c.n;
  EXPECT_EQ(m.value("t.ops"), 1);
}

TEST(MetricsRegistryTest, HistogramsExpandIntoSortedBuckets) {
  MetricsRegistry m;
  m.add("a.count", 3);
  m.observe("a.wait_ns", 1);
  m.observe("a.wait_ns", 1000);
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.at("a.count"), 3);
  EXPECT_EQ(snap.at("a.wait_ns.count"), 2);
  // serialize() is "key value\n" in sorted order.
  const std::string s = m.serialize();
  EXPECT_NE(s.find("a.count 3\n"), std::string::npos);
  EXPECT_NE(s.find("a.wait_ns.count 2\n"), std::string::npos);
}

}  // namespace
}  // namespace fractos

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update") {
      g_update = true;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
