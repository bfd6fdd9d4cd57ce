// Chaos-soak harness: the soak workload run on a deliberately lossy fabric.
//
// A FaultPlan derived from a seed drops/duplicates/jitters messages and flaps links while
// the full service stack (FS + block + GPU) executes a randomized workload. The harness
// asserts the reliability layer's contract:
//
//   * no hang: every application op resolves — with ok or a specific ErrorCode (never a
//     stuck future, never a CHECK);
//   * determinism: the same seed reproduces a bit-identical run (simulated end time, traffic
//     counters, injected-fault counters, per-op outcomes); different seeds diverge;
//   * bounded state: object tables and cleanup queues stay bounded by live state even when
//     ops fail mid-flight.
//
// Also here: the monitor false-positive/re-admission scenario and the Controller peer-op
// timeout + dedup scenario, which need hand-placed fault schedules rather than random ones.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/node_monitor.h"
#include "src/core/replication.h"
#include "src/services/block_adaptor.h"
#include "src/services/fs.h"
#include "src/services/gpu_adaptor.h"
#include "src/sim/metrics.h"
#include "src/sim/rng.h"
#include "src/sim/span.h"
#include "src/sim/tax_report.h"

namespace fractos {
namespace {

// Everything a chaos run produces. Two runs with the same seed must compare equal on every
// field; runs with different seeds should diverge somewhere.
struct ChaosOutcome {
  int64_t end_ns = 0;
  TrafficCounters traffic;
  FaultCounters faults;
  int ok_ops = 0;
  std::map<ErrorCode, int> errors;
  uint64_t live_objects = 0;
  uint64_t total_objects = 0;
  uint64_t pending_cleanups = 0;

  int total_ops() const {
    int n = ok_ops;
    for (const auto& [code, count] : errors) {
      n += count;
    }
    return n;
  }
};

bool same_outcome(const ChaosOutcome& a, const ChaosOutcome& b) {
  return a.end_ns == b.end_ns && a.ok_ops == b.ok_ops && a.errors == b.errors &&
         a.faults == b.faults && a.traffic.messages[0] == b.traffic.messages[0] &&
         a.traffic.messages[1] == b.traffic.messages[1] &&
         a.traffic.bytes[0] == b.traffic.bytes[0] && a.traffic.bytes[1] == b.traffic.bytes[1] &&
         a.live_objects == b.live_objects && a.total_objects == b.total_objects;
}

// Setup (spawn, FS/GPU bootstrap, file create/open) runs under the probabilistic faults —
// the RC layer absorbs those — but must finish before the first link flap, which can push
// peer ops past their deadline. Flaps are therefore scheduled at >= kFlapFloor.
constexpr int64_t kFlapFloorNs = 6'000'000;  // 6 ms

// Derives a randomized-but-deterministic fault schedule from a seed. Probabilities are kept
// in a band where the RC layer recovers everything (so setup succeeds) while flaps are long
// enough to break peer-op deadlines (1 ms) yet far below the QP sever horizon (~11 ms).
FaultPlan chaos_plan(uint64_t seed) {
  Rng r(seed ^ 0x9e3779b97f4a7c15ull);
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob[0] = 0.005 + 0.010 * r.next_double();  // control: 0.5% .. 1.5%
  plan.drop_prob[1] = 0.002 + 0.004 * r.next_double();  // data:    0.2% .. 0.6%
  plan.dup_prob[0] = 0.004;
  plan.dup_prob[1] = 0.002;
  plan.jitter_prob[0] = 0.02;
  plan.jitter_prob[1] = 0.01;
  plan.max_jitter = Duration::micros(15);
  for (int i = 0; i < 2; ++i) {
    const uint32_t a = r.next_below(4);
    const uint32_t b = (a + 1 + r.next_below(3)) % 4;
    const Time start = Time::from_ns(kFlapFloorNs + int64_t(r.next_below(6'000'000)));
    const Duration len = Duration::micros(200 + r.next_below(1800));  // 0.2 .. 2 ms
    plan.flaps.push_back({a, b, start, start + len});
  }
  return plan;
}

// One full chaos run: build the soak topology on a faulted fabric, run `ops` randomized
// application ops tolerating per-op errors, drain, and snapshot the outcome. When `metrics`
// or `tracer` is given, it is attached for the entire run (bootstrap included, so the fault
// mirrors see every message) — instrumentation must not perturb the simulation, which the
// observability tests check by comparing outcomes against an uninstrumented run.
ChaosOutcome run_chaos(uint64_t seed, int ops, MetricsRegistry* metrics = nullptr,
                       SpanTracer* tracer = nullptr) {
  constexpr uint64_t kFileBytes = 1 << 20;
  constexpr uint64_t kBufBytes = 64 << 10;

  SystemConfig cfg;
  cfg.faults = chaos_plan(seed);
  System sys(cfg);
  sys.loop().set_metrics(metrics);
  sys.loop().set_span_tracer(tracer);
  Rng rng(seed * 2654435761u + 1);

  const uint32_t cn = sys.add_node("client");
  const uint32_t fn = sys.add_node("fs");
  const uint32_t sn = sys.add_node("storage");
  const uint32_t gn = sys.add_node("gpu");
  Controller& cc = sys.add_controller(cn, Loc::kHost);
  Controller& cf = sys.add_controller(fn, Loc::kHost);
  Controller& cs = sys.add_controller(sn, Loc::kHost);
  Controller& cg = sys.add_controller(gn, Loc::kHost);
  (void)cf;
  auto nvme = std::make_unique<SimNvme>(&sys.loop());
  auto block = std::make_unique<BlockAdaptor>(&sys, sn, cs, nvme.get());
  auto fs = FsService::bootstrap(&sys, fn, cf, block->process(), block->mgmt_endpoint());
  auto gpu = std::make_unique<SimGpu>(&sys.net(), gn);
  auto gpu_adaptor = std::make_unique<GpuAdaptor>(&sys, cg, gpu.get());
  gpu_adaptor->register_kernel(
      "xor", [](PoolBytes& m, const std::vector<uint64_t>& a) {
        for (uint64_t i = 0; i < a[2]; ++i) {
          m[a[1] + i] = static_cast<uint8_t>(m[a[0] + i] ^ 0x77);
        }
        return Duration::micros(20);
      });

  Process& client = sys.spawn("client", cn, cc, 16 << 20);
  const CapId create_ep = sys.bootstrap_grant(fs->process(), fs->create_endpoint(), client).value();
  const CapId open_ep = sys.bootstrap_grant(fs->process(), fs->open_endpoint(), client).value();
  const CapId init_ep =
      sys.bootstrap_grant(gpu_adaptor->process(), gpu_adaptor->init_endpoint(), client).value();
  const GpuClient::Session session = sys.await_ok(GpuClient::init(client, init_ep));
  const CapId kernel = sys.await_ok(GpuClient::load(client, session, "xor"));
  const GpuClient::Buffer gpu_in = sys.await_ok(GpuClient::alloc(client, session, kBufBytes));
  const GpuClient::Buffer gpu_out = sys.await_ok(GpuClient::alloc(client, session, kBufBytes));

  const uint64_t buf_addr = client.alloc(kBufBytes);
  const CapId buf = sys.await_ok(client.memory_create(buf_addr, kBufBytes, Perms::kReadWrite));
  FRACTOS_CHECK(sys.await(FsClient::create(client, create_ep, "chaos", kFileBytes)).ok());
  const FsClient::OpenFile file_fs = sys.await_ok(FsClient::open(client, open_ep, "chaos", true, false));
  const FsClient::OpenFile file_dax = sys.await_ok(FsClient::open(client, open_ep, "chaos", true, true));

  // Setup must have finished before flaps begin, or the await_ok calls above could have
  // CHECK-failed on a timed-out peer op. If this ever fires, raise kFlapFloorNs.
  FRACTOS_CHECK_MSG(sys.loop().now().ns() < kFlapFloorNs, "chaos setup overran the flap floor");

  ChaosOutcome out;
  auto tally = [&out](const Status& s) {
    if (s.ok()) {
      ++out.ok_ops;
    } else {
      ++out.errors[s.error()];
    }
  };

  for (int op = 0; op < ops; ++op) {
    const uint64_t io = 4096ull << rng.next_below(4);  // 4K..32K
    const uint64_t off = rng.next_below((kFileBytes - io) / 4096 + 1) * 4096;
    const auto& file = rng.next_bool() ? file_dax : file_fs;
    // With a tracer attached, every op runs under its own root span so the downstream
    // instrumentation (syscalls, peer ops, devices) has an ambient context to attach to.
    uint64_t root = 0;
    std::optional<SpanScope> scope;
    if (tracer != nullptr) {
      root = tracer->start_trace("chaos", "op-" + std::to_string(op), sys.loop().now());
      scope.emplace(tracer->context_of(root));
    }
    switch (rng.next_below(4)) {
      case 0: {  // write (no content model: a failed write may leave partial state)
        std::vector<uint8_t> data(io);
        for (auto& byte : data) {
          byte = rng.next_byte();
        }
        client.write_mem(buf_addr, data);
        tally(sys.await(FsClient::write(client, file, off, io, buf)));
        break;
      }
      case 1: {  // read (content verified only by the clean-fabric soak test)
        tally(sys.await(FsClient::read(client, file, off, io, buf)));
        break;
      }
      case 2: {  // GPU round trip: buf -> gpu_in, xor kernel, gpu_out -> buf
        const Status copied = sys.await(client.memory_copy(buf, gpu_in.mem));
        tally(copied);
        if (copied.ok()) {
          tally(sys.await(GpuClient::run(client, kernel,
                                         {gpu_in.device_addr, gpu_out.device_addr, kBufBytes},
                                         gpu_out.mem, buf)));
        }
        break;
      }
      default: {  // capability churn: derive a view and revoke it (all local to cc)
        Result<CapId> view = sys.await(client.memory_diminish(buf, 0, 4096, Perms::kNone));
        if (view.ok()) {
          tally(sys.await(client.cap_revoke(view.value())));
        } else {
          ++out.errors[view.error()];
        }
        break;
      }
    }
    if (tracer != nullptr) {
      scope.reset();
      tracer->end(root, sys.loop().now());
    }
  }
  sys.loop().run();  // drain retransmit timers, late replies, cleanup protocol
  sys.loop().set_metrics(nullptr);
  sys.loop().set_span_tracer(nullptr);

  out.end_ns = sys.loop().now().ns();
  out.traffic = sys.net().counters();
  out.faults = sys.fault_injector()->counters();
  out.live_objects = cc.table().live_count();
  out.total_objects = cc.table().total_count();
  out.pending_cleanups = cc.pending_cleanups() + cs.pending_cleanups();
  return out;
}

uint64_t base_seed() {
  if (const char* env = std::getenv("FRACTOS_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xC0FFEE;
}

// The committed chaos-digest line of `seed` in tests/golden/chaos_digests.txt, or "" when the
// seed is not listed there.
std::string golden_chaos_digest(uint64_t seed) {
  std::ifstream in(std::string(FRACTOS_GOLDEN_DIR) + "/chaos_digests.txt");
  EXPECT_TRUE(in.good()) << "missing tests/golden/chaos_digests.txt";
  const std::string prefix = "chaos-digest seed=" + std::to_string(seed) + " ";
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) {
      return line;
    }
  }
  return "";
}

TEST(ChaosSoak, EveryOpResolvesUnderLossyFabric) {
  constexpr int kOps = 120;
  const ChaosOutcome out = run_chaos(base_seed(), kOps);

  // One digest line per seed, so the outcome of a seed matrix can be diffed between builds.
  std::string errors;
  for (const auto& [code, count] : out.errors) {
    errors += std::string(errors.empty() ? "" : ",") + error_code_name(code) + ":" +
              std::to_string(count);
  }
  char digest[256];
  std::snprintf(digest, sizeof(digest),
                "chaos-digest seed=%llu end_ns=%lld ok_ops=%d errors={%s} control_msgs=%llu "
                "data_msgs=%llu injected=%llu",
                static_cast<unsigned long long>(base_seed()), static_cast<long long>(out.end_ns),
                out.ok_ops, errors.c_str(),
                static_cast<unsigned long long>(out.traffic.messages[0]),
                static_cast<unsigned long long>(out.traffic.messages[1]),
                static_cast<unsigned long long>(out.faults.total_injected()));
  std::printf("%s\n", digest);
  // Same seed, same bytes under faults: a seed with a committed digest must reproduce it.
  if (const std::string golden = golden_chaos_digest(base_seed()); !golden.empty()) {
    EXPECT_EQ(std::string(digest), golden)
        << "the chaos outcome of this seed moved; if intended, re-record "
           "tests/golden/chaos_digests.txt";
  }

  // The plan actually perturbed the run...
  EXPECT_GT(out.faults.total_injected(), 0u);
  EXPECT_GT(out.faults.dropped[0], 0u);
  // ...and every op resolved, ok or with a real error code (GPU round trips tally up to two
  // awaits per op, so total is >= kOps; a hang would have CHECK-failed inside await).
  EXPECT_GE(out.total_ops(), kOps);
  for (const auto& [code, count] : out.errors) {
    EXPECT_NE(code, ErrorCode::kBrokenPromise) << "count " << count;
  }
  // Failed ops must not leak table state: bounded by live objects + op count, with the
  // cleanup protocol fully drained.
  EXPECT_EQ(out.pending_cleanups, 0u);
  EXPECT_LT(out.total_objects, 600u);
}

TEST(ChaosSoak, SameSeedIsBitIdentical) {
  const ChaosOutcome a = run_chaos(base_seed(), 60);
  const ChaosOutcome b = run_chaos(base_seed(), 60);
  EXPECT_TRUE(same_outcome(a, b))
      << "end_ns " << a.end_ns << " vs " << b.end_ns << ", ok " << a.ok_ops << " vs "
      << b.ok_ops << ", injected " << a.faults.total_injected() << " vs "
      << b.faults.total_injected();
}

TEST(ChaosSoak, DifferentSeedsDiverge) {
  const ChaosOutcome a = run_chaos(base_seed(), 60);
  const ChaosOutcome b = run_chaos(base_seed() + 1, 60);
  EXPECT_FALSE(same_outcome(a, b));
}

// The fault mirrors are bumped at the injector's verdict site, so under any chaos plan the
// net.faults.* metrics must equal the FaultInjector's own counters key-for-key. (drops
// covers both dice-induced and flap-induced losses: the verdict reports both as `drop`.)
TEST(ChaosObservability, FaultMetricsMirrorInjectorCounters) {
  MetricsRegistry metrics;
  SpanTracer tracer;
  const ChaosOutcome out = run_chaos(base_seed(), 60, &metrics, &tracer);

  ASSERT_GT(out.faults.total_injected(), 0u);
  EXPECT_EQ(static_cast<uint64_t>(metrics.value("net.faults.drops")),
            out.faults.dropped[0] + out.faults.dropped[1] + out.faults.partition_drops);
  EXPECT_EQ(static_cast<uint64_t>(metrics.value("net.faults.duplicates")),
            out.faults.duplicated[0] + out.faults.duplicated[1]);
  EXPECT_EQ(static_cast<uint64_t>(metrics.value("net.faults.delayed")),
            out.faults.delayed[0] + out.faults.delayed[1]);
  EXPECT_EQ(static_cast<uint64_t>(metrics.value("net.faults.rdma_retransmits")),
            out.faults.rdma_retransmits);
  EXPECT_EQ(static_cast<uint64_t>(metrics.value("net.faults.rdma_aborts")),
            out.faults.rdma_aborts);
  // RC retry-budget exhaustion mirrors the TrafficCounters field (zero here — the chaos
  // band deliberately stays below the sever horizon — but the keys must agree regardless).
  EXPECT_EQ(static_cast<uint64_t>(metrics.value("net.faults.rc_exhausted")),
            out.traffic.rc_exhausted);

  // The QP reliability layer's own counters surface too: a lossy run must retransmit.
  EXPECT_GT(metrics.value("qp.retransmits"), 0);

  // Even under faults no span leaks: every syscall reply eventually lands (RC retransmit),
  // every timed-out peer op is force-closed, every FS io reaches a terminal branch.
  EXPECT_EQ(tracer.open_spans(), 0u);
  for (const Span& s : tracer.spans()) {
    EXPECT_FALSE(s.open) << "span " << s.span_id << " (" << s.name() << ") left open";
  }
}

// Attaching a tracer and a metrics registry must not perturb the simulation: the
// instrumented run's outcome (end time, traffic, faults, per-op results) is bit-identical
// to the uninstrumented run with the same seed.
TEST(ChaosObservability, InstrumentationDoesNotPerturbTheRun) {
  const ChaosOutcome plain = run_chaos(base_seed(), 60);
  MetricsRegistry metrics;
  SpanTracer tracer;
  const ChaosOutcome traced = run_chaos(base_seed(), 60, &metrics, &tracer);
  EXPECT_TRUE(same_outcome(plain, traced))
      << "end_ns " << plain.end_ns << " vs " << traced.end_ns << ", injected "
      << plain.faults.total_injected() << " vs " << traced.faults.total_injected();
}

// A node outage at the fabric level eats heartbeats while the node keeps executing: the
// monitor must first report the failure, then retract it (re-admission) when beats resume.
TEST(ChaosMonitor, SpuriousNodeFailureIsReadmitted) {
  FaultPlan plan;
  plan.seed = 42;
  plan.outages.push_back({1, Time::from_ns(2'000'000), Time::from_ns(10'000'000)});
  SystemConfig cfg;
  cfg.faults = plan;
  System sys(cfg);
  sys.add_node("monitor");
  sys.add_node("watched");
  Controller& c0 = sys.add_controller(0, Loc::kHost);

  NodeMonitor::Params params;
  params.heartbeat_interval = Duration::millis(1);
  params.failure_timeout = Duration::millis(3);
  params.check_interval = Duration::millis(1);
  NodeMonitor monitor(&sys, 0, params);
  monitor.watch(1);
  monitor.start();

  sys.loop().run_until_time(Time::from_ns(6'000'000));
  EXPECT_TRUE(monitor.reported(1));
  EXPECT_EQ(monitor.failures_detected(), 1u);
  EXPECT_EQ(monitor.recoveries_detected(), 0u);

  sys.loop().run_until_time(Time::from_ns(14'000'000));
  EXPECT_FALSE(monitor.reported(1));
  EXPECT_EQ(monitor.failures_detected(), 1u);
  EXPECT_EQ(monitor.recoveries_detected(), 1u);
  EXPECT_EQ(c0.stats().node_recoveries, 1u);
  EXPECT_GT(sys.fault_injector()->counters().partition_drops, 0u);

  monitor.stop();
  sys.loop().run();
}

// Controller peer ops under a long flap: the op times out on the caller with kTimeout, yet
// the request eventually lands (QP retransmission) and executes exactly once (dedup). The
// late replies are counted and ignored, and the channel recovers for the next op.
TEST(ChaosPeerOps, TimeoutThenDedupAfterLinkHeals) {
  FaultPlan plan;
  plan.seed = 7;
  plan.flaps.push_back({0, 1, Time::from_ns(0), Time::from_ns(3'000'000)});
  SystemConfig cfg;
  cfg.faults = plan;
  System sys(cfg);
  MetricsRegistry metrics;
  sys.loop().set_metrics(&metrics);
  sys.add_node("a");
  sys.add_node("b");
  Controller& c0 = sys.add_controller(0, Loc::kHost);
  Controller& c1 = sys.add_controller(1, Loc::kHost);

  Process& p = sys.spawn("p", 0, c0);
  Process& q = sys.spawn("q", 1, c1);
  // q owns a buffer; p holds a capability to it, so p's diminish is a cross-controller
  // derive (RemoteDerive peer op c0 -> c1). All setup traffic is node-local, so the flap
  // that is already active does not disturb it.
  const CapId qbuf = sys.await_ok(q.memory_create(q.alloc(8192), 8192, Perms::kReadWrite));
  const CapId pbuf = sys.bootstrap_grant(q, qbuf, p).value();
  const uint64_t c1_objects_before = c1.table().total_count();

  // Trace the doomed op: the controller's peer-op span must be closed with the timeout
  // error when the deadline fires, not left dangling until the late reply arrives.
  SpanTracer tracer;
  sys.loop().set_span_tracer(&tracer);
  const uint64_t root = tracer.start_trace("test", "diminish", sys.loop().now());

  // The request (and its resends) are stuck behind the flap; the 1 ms deadline fires first.
  Result<CapId> first = sys.await([&]() {
    SpanScope scope(tracer.context_of(root));
    return p.memory_diminish(pbuf, 0, 4096, Perms::kRead);
  }());
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error(), ErrorCode::kTimeout);
  EXPECT_EQ(c0.stats().peer_op_timeouts, 1u);
  EXPECT_GE(c0.stats().peer_retries, 1u);
  tracer.end(root, sys.loop().now());

  // The timed-out peer op's span is closed — with the error recorded — the moment the
  // deadline fires, and the failed syscall's span carries an error too.
  bool saw_timeout_span = false;
  for (const Span& s : tracer.spans()) {
    if (s.kind == SpanKind::kController && s.name() == "peer-op") {
      EXPECT_FALSE(s.open);
      EXPECT_TRUE(s.error);
      EXPECT_EQ(s.error_what, "timeout");
      saw_timeout_span = true;
    }
  }
  EXPECT_TRUE(saw_timeout_span) << "no peer-op span recorded for the timed-out op";

  // Heal, deliver the queued request copies, and drain: exactly one execution at the owner,
  // the duplicates answered from the dedup cache, every reply late and ignored.
  sys.loop().run();
  EXPECT_GT(sys.loop().now().ns(), 3'000'000);
  EXPECT_EQ(c1.table().total_count(), c1_objects_before + 1);
  EXPECT_GE(c1.stats().peer_dedup_hits, 1u);
  EXPECT_GE(c0.stats().late_replies_ignored, 2u);

  // The channel survived the flap (no sever): the next peer op completes normally.
  const CapId second = sys.await_ok(p.memory_diminish(pbuf, 0, 4096, Perms::kRead));
  EXPECT_NE(second, kInvalidCap);
  EXPECT_EQ(c0.stats().peer_op_timeouts, 1u);

  // Nothing leaks: the late-reply dedup path and the timeout path both close their spans.
  EXPECT_EQ(tracer.open_spans(), 0u);
  sys.loop().set_span_tracer(nullptr);

  // The late replies surfaced as a dedicated metric, mirroring the stats counter exactly.
  EXPECT_EQ(static_cast<uint64_t>(
                metrics.value("ctrl." + std::to_string(c0.addr()) + ".late_reply")),
            c0.stats().late_replies_ignored);
  sys.loop().set_metrics(nullptr);
}

// A seeded spine-link-flap schedule on a fat-tree topology: both uplinks of rack 0 flap for
// a window derived from the seed, partitioning rack 0 from rack 1 regardless of which spine
// ECMP picks. Cross-rack peer ops issued across the window must all resolve — ok before and
// after, kTimeout during — with the partition drops counted, and the whole run must be
// bit-identical when repeated with the same seed.
ChaosOutcome run_spine_flap_chaos(uint64_t seed) {
  Rng r(seed ^ 0x5bd1e995u);
  const int64_t flap_start = kFlapFloorNs + int64_t(r.next_below(1'000'000));
  // The flap must outlast the peer-op deadline (1 ms) by more than the 250 us op pacing,
  // or a lucky draw lets every blocked op resend its way to success after the heal and the
  // window produces zero timeouts. 1.5 .. 2.5 ms guarantees a >=500 us stretch in which
  // any issued op is doomed, for every seed.
  const int64_t flap_len = 1'500'000 + int64_t(r.next_below(1'000'000));

  SystemConfig cfg;
  cfg.topology = TopologySpec::fat_tree(2, 2);
  FaultPlan plan;
  plan.seed = seed;
  for (uint32_t s = 0; s < 2; ++s) {
    plan.flaps.push_back({Topology::tor_id(0), Topology::spine_id(s), Time::from_ns(flap_start),
                          Time::from_ns(flap_start + flap_len)});
  }
  cfg.faults = plan;
  System sys(cfg);
  for (int i = 0; i < 4; ++i) {
    sys.add_node("n" + std::to_string(i));
  }
  Controller& c0 = sys.add_controller(0, Loc::kHost);
  Controller& c2 = sys.add_controller(2, Loc::kHost);
  Process& p = sys.spawn("p", 0, c0);
  Process& q = sys.spawn("q", 2, c2);
  const CapId qbuf = sys.await_ok(q.memory_create(q.alloc(8192), 8192, Perms::kReadWrite));
  const CapId pbuf = sys.bootstrap_grant(q, qbuf, p).value();
  FRACTOS_CHECK_MSG(sys.loop().now().ns() < kFlapFloorNs, "spine-flap setup overran the floor");

  ChaosOutcome out;
  // 30 cross-rack derives, paced 250 us apart: the op train straddles the flap window.
  for (int op = 0; op < 30; ++op) {
    const Result<CapId> res = sys.await(p.memory_diminish(pbuf, 0, 4096, Perms::kRead));
    if (res.ok()) {
      ++out.ok_ops;
    } else {
      ++out.errors[res.error()];
    }
    sys.loop().run_until_time(sys.loop().now() + Duration::micros(250));
  }
  sys.loop().run();

  out.end_ns = sys.loop().now().ns();
  out.traffic = sys.net().counters();
  out.faults = sys.fault_injector()->counters();
  out.live_objects = c2.table().live_count();
  out.total_objects = c2.table().total_count();
  return out;
}

TEST(ChaosSpineFlap, CrossRackOpsResolveAcrossTheFlapWindow) {
  const ChaosOutcome out = run_spine_flap_chaos(base_seed());
  EXPECT_EQ(out.total_ops(), 30);
  EXPECT_GT(out.ok_ops, 0) << "no op succeeded outside the flap window";
  EXPECT_GT(out.errors.count(ErrorCode::kTimeout), 0u)
      << "no op hit the partition — flap window missed the op train";
  for (const auto& [code, count] : out.errors) {
    EXPECT_EQ(code, ErrorCode::kTimeout) << "count " << count;
  }
  // The drops were the deterministic topology-link kind, not dice.
  EXPECT_GT(out.faults.partition_drops, 0u);
  EXPECT_EQ(out.faults.dropped[0] + out.faults.dropped[1], 0u);
}

TEST(ChaosSpineFlap, SameSeedIsBitIdentical) {
  const ChaosOutcome a = run_spine_flap_chaos(base_seed());
  const ChaosOutcome b = run_spine_flap_chaos(base_seed());
  EXPECT_TRUE(same_outcome(a, b))
      << "end_ns " << a.end_ns << " vs " << b.end_ns << ", ok " << a.ok_ops << " vs "
      << b.ok_ops << ", partition_drops " << a.faults.partition_drops << " vs "
      << b.faults.partition_drops;
}

// --- controller failure mid-revocation of a delegation chain -----------------------------------

// A 4-level delegation chain root -> l1 -> l2 -> l3 -> l4 spans three Controllers (levels 3/4
// are held at c2), with a monitor_receive on every level. c2 is killed at a seeded point while
// l1's revocation is in flight — before, between, or after the cleanup broadcast hops — then
// restarted. Afterwards no capability under l1 may ever be honored again (the revocation took
// effect atomically at the owner, so a lost broadcast leg must not matter), the untouched root
// must keep working, each monitor must have fired exactly once, and the owner's translation
// cache must still audit clean. The hot path (translation cache + batched peer ops) is on, so
// this also exercises cache invalidation racing a peer failure.
TEST(ChaosRevocation, ControllerFailureMidRevocationHonorsNoStaleCap) {
  for (const uint64_t fail_step : {0ull, 1ull, 2ull, 4ull, 8ull, 16ull}) {
    SystemConfig cfg;
    cfg.translation_cache_entries = 64;
    cfg.charge_chain_traversal = true;
    cfg.peer_op_batch_max = 4;
    System sys(cfg);
    const uint32_t n0 = sys.add_node("owner");
    const uint32_t n1 = sys.add_node("mid");
    const uint32_t n2 = sys.add_node("far");
    Controller& c0 = sys.add_controller(n0, Loc::kHost);
    Controller& c1 = sys.add_controller(n1, Loc::kHost);
    Controller& c2 = sys.add_controller(n2, Loc::kHost);
    Process& provider = sys.spawn("provider", n0, c0);
    Process& watcher = sys.spawn("watcher", n0, c0);
    Process& holder1 = sys.spawn("holder1", n1, c1);
    Process& holder2 = sys.spawn("holder2", n2, c2);

    int deliveries = 0;
    const CapId root =
        sys.await_ok(provider.serve({}, [&](Process::Received) { ++deliveries; }));
    const CapId root_h1 = sys.bootstrap_grant(provider, root, holder1).value();

    // Build the chain: l1/l2 derived by holder1, l3/l4 derived by holder2 (on c2).
    const CapId l1 = sys.await_ok(holder1.cap_create_revtree(root_h1));
    const CapId l2 = sys.await_ok(holder1.cap_create_revtree(l1));
    const CapId l2_h2 = sys.bootstrap_grant(holder1, l2, holder2).value();
    const CapId l3 = sys.await_ok(holder2.cap_create_revtree(l2_h2));
    const CapId l4 = sys.await_ok(holder2.cap_create_revtree(l3));
    // The watcher (on the always-alive c0) monitors levels 3/4 so every fire is observable
    // even while c2 is down.
    const CapId l3_w = sys.bootstrap_grant(holder2, l3, watcher).value();
    const CapId l4_w = sys.bootstrap_grant(holder2, l4, watcher).value();

    std::map<uint64_t, int> fires;
    holder1.set_monitor_handler([&](uint64_t cb, bool) { ++fires[cb]; });
    watcher.set_monitor_handler([&](uint64_t cb, bool) { ++fires[cb]; });
    ASSERT_TRUE(sys.await(holder1.monitor_receive(l1, 1)).ok());
    ASSERT_TRUE(sys.await(holder1.monitor_receive(l2, 2)).ok());
    ASSERT_TRUE(sys.await(watcher.monitor_receive(l3_w, 3)).ok());
    ASSERT_TRUE(sys.await(watcher.monitor_receive(l4_w, 4)).ok());

    // Sanity: the deep end of the chain delivers before the revocation.
    holder2.request_invoke(l4);
    sys.loop().run();
    ASSERT_EQ(deliveries, 1) << "fail_step " << fail_step;

    // Revoke l1 and kill c2 `fail_step` events into the in-flight revocation.
    auto revoked = holder1.cap_revoke(l1);
    sys.loop().run(fail_step);
    sys.fail_controller(c2);
    sys.loop().run();
    ASSERT_TRUE(revoked.ready()) << "fail_step " << fail_step;
    EXPECT_TRUE(revoked.take().ok()) << "fail_step " << fail_step;

    sys.restart_controller(c2);
    sys.loop().run();

    // No stale capability is honored: nothing under l1 can reach the provider again,
    // whichever side of the torn broadcast each holder was on.
    const int before = deliveries;
    holder2.request_invoke(l4);
    holder2.request_invoke(l3);
    holder1.request_invoke(l2);
    holder1.request_invoke(l1);
    sys.loop().run();
    EXPECT_EQ(deliveries, before) << "fail_step " << fail_step;

    // The untouched root still works...
    holder1.request_invoke(root_h1);
    sys.loop().run();
    EXPECT_EQ(deliveries, before + 1) << "fail_step " << fail_step;

    // ...each monitor fired exactly once...
    ASSERT_EQ(fires.size(), 4u) << "fail_step " << fail_step;
    for (const auto& [cb, count] : fires) {
      EXPECT_EQ(count, 1) << "callback " << cb << " fail_step " << fail_step;
    }

    // ...and the owner's translation cache is coherent with its table.
    EXPECT_TRUE(c0.translation_cache_audit().ok()) << "fail_step " << fail_step;
  }
}

// A flap that outlives the QP sever horizon: the RC layer retransmits until the head WQE's
// retry budget exhausts, then moves the connection to the error state. The exhaustion is a
// first-class counter mirrored into net.faults.rc_exhausted, and the severed channel fails
// cleanly (kChannelClosed) instead of retrying forever.
TEST(ChaosPeerOps, RetryBudgetExhaustionSeversAndIsCounted) {
  FaultPlan plan;
  plan.seed = 9;
  plan.flaps.push_back({0, 1, Time::from_ns(0), Time::from_ns(15'000'000)});
  SystemConfig cfg;
  cfg.faults = plan;
  System sys(cfg);
  MetricsRegistry metrics;
  sys.loop().set_metrics(&metrics);
  sys.add_node("a");
  sys.add_node("b");
  Controller& c0 = sys.add_controller(0, Loc::kHost);
  Controller& c1 = sys.add_controller(1, Loc::kHost);
  Process& p = sys.spawn("p", 0, c0);
  Process& q = sys.spawn("q", 1, c1);
  const CapId qbuf = sys.await_ok(q.memory_create(q.alloc(8192), 8192, Perms::kReadWrite));
  const CapId pbuf = sys.bootstrap_grant(q, qbuf, p).value();

  // The op times out on the caller long before the QP gives up retransmitting the request.
  const Result<CapId> first = sys.await(p.memory_diminish(pbuf, 0, 4096, Perms::kRead));
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error(), ErrorCode::kTimeout);
  sys.loop().run();  // ride out the flap: head retries exhaust ~11 ms in, severing the QP

  EXPECT_GE(sys.net().counters().rc_exhausted, 1u);
  EXPECT_EQ(static_cast<uint64_t>(metrics.value("net.faults.rc_exhausted")),
            sys.net().counters().rc_exhausted);

  // The severed channel reports closure immediately — no silent hang, no misdelivery.
  const Result<CapId> second = sys.await(p.memory_diminish(pbuf, 0, 4096, Perms::kRead));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error(), ErrorCode::kChannelClosed);
  sys.loop().set_metrics(nullptr);
}

// Monitor false positive from a flapped *monitoring* link: heartbeats (UD datagrams) from
// the watched node drop while the node itself — and the capability data path to it — stays
// perfectly healthy. The suspicion must not misroute or disturb a single capability op:
// derives keep landing at the suspected node's Controller (the owner), nowhere else, and
// re-admission fires once beats resume. The watched node hosts only a Controller (its
// attached Process runs on another node, the Shared-HAL deployment), so the false positive
// has no process casualties to mask the routing assertion.
TEST(ChaosMonitor, LinkFlapFalsePositiveDoesNotMisrouteCapabilityOps) {
  FaultPlan plan;
  plan.seed = 21;
  plan.flaps.push_back({0, 1, Time::from_ns(2'000'000), Time::from_ns(10'000'000)});
  SystemConfig cfg;
  cfg.faults = plan;
  System sys(cfg);
  sys.add_node("monitor");
  sys.add_node("watched");
  sys.add_node("client");
  Controller& c1 = sys.add_controller(1, Loc::kHost);  // on the watched node
  Controller& c2 = sys.add_controller(2, Loc::kHost);
  // Shared HAL: q runs on the client node but its capability seat is c1 on the watched
  // node, so c1 owns objects while no Process lives on the suspected node.
  Process& q = sys.spawn("q", 2, c1);
  Process& p = sys.spawn("p", 2, c2);
  const CapId qbuf = sys.await_ok(q.memory_create(q.alloc(16384), 16384, Perms::kReadWrite));
  const CapId pbuf = sys.bootstrap_grant(q, qbuf, p).value();

  NodeMonitor::Params params;
  params.heartbeat_interval = Duration::millis(1);
  params.failure_timeout = Duration::millis(3);
  params.check_interval = Duration::millis(1);
  NodeMonitor monitor(&sys, 0, params);
  monitor.watch(1);
  monitor.start();

  // Mid-flap: the monitor has (wrongly) declared the node dead.
  sys.loop().run_until_time(Time::from_ns(6'500'000));
  EXPECT_TRUE(monitor.reported(1));
  EXPECT_EQ(monitor.failures_detected(), 1u);

  // Capability ops issued during the suspect window still route to the suspected owner —
  // the client<->owner link is clean; only the monitoring link is flapping.
  const uint64_t c1_objects = c1.table().total_count();
  const uint64_t c2_objects = c2.table().total_count();
  for (int i = 0; i < 3; ++i) {
    const Result<CapId> view = sys.await(p.memory_diminish(pbuf, 0, 4096, Perms::kRead));
    ASSERT_TRUE(view.ok()) << "op " << i << ": " << error_code_name(view.error());
  }
  EXPECT_EQ(c1.table().total_count(), c1_objects + 3);  // derived at the owner...
  EXPECT_EQ(c2.table().total_count(), c2_objects);      // ...and nowhere else
  EXPECT_TRUE(monitor.reported(1)) << "ops outran the suspect window";

  // The link heals, beats resume, the report is retracted exactly once.
  sys.loop().run_until_time(Time::from_ns(14'000'000));
  EXPECT_FALSE(monitor.reported(1));
  EXPECT_EQ(monitor.failures_detected(), 1u);
  EXPECT_EQ(monitor.recoveries_detected(), 1u);
  EXPECT_EQ(c1.stats().node_recoveries, 1u);
  EXPECT_EQ(c2.stats().node_recoveries, 1u);

  monitor.stop();
  sys.loop().run();
}

// --- leader killed mid-revocation with quorum replication on ------------------------------------

// The PR's acceptance scenario: a 4-level delegation chain rooted at a replicated seat, the
// seat Controller killed a seeded number of events into an in-flight revocation. A replica
// must take over within the lease bound, the revocation must reach a terminal, audited
// state (completed, or provably never-started and repeatable), no capability under the
// revoked level may ever derive again, the untouched levels must keep working, monitors
// fire at most once across the failover, and both surviving state machines must report the
// same structural digest. FRACTOS_FAILOVER_TRACE=<dir> dumps per-step span traces as
// Chrome trace JSON (the CI failover job uploads them on failure).
TEST(ChaosFailover, LeaderKilledMidRevocationHonorsNoStaleCap) {
  const char* trace_dir = std::getenv("FRACTOS_FAILOVER_TRACE");
  Rng step_rng(base_seed() * 0x9e3779b97f4a7c15ull + 1);
  for (const uint64_t fail_step : {0ull, 1ull, 2ull, 4ull, 8ull, 16ull, 32ull}) {
    // The seed shifts every kill point so the CI seed matrix sweeps distinct interleavings.
    const uint64_t kill_step = fail_step + step_rng.next_below(3);
    SystemConfig cfg;
    cfg.replication_group_size = 3;
    System sys(cfg);
    SpanTracer tracer;
    if (trace_dir != nullptr) {
      sys.loop().set_span_tracer(&tracer);
    }
    sys.add_node("seat");
    sys.add_node("r1");
    sys.add_node("r2");
    sys.add_node("holder");
    Controller& c1 = sys.add_controller(0, Loc::kHost);
    Controller& c2 = sys.add_controller(1, Loc::kHost);
    Controller& c3 = sys.add_controller(2, Loc::kHost);
    Controller& c4 = sys.add_controller(3, Loc::kHost);
    const ControllerAddr seat = c1.addr();
    sys.replicate_controller(c1, {&c2, &c3});

    Process& provider = sys.spawn("provider", 0, c1);
    Process& holder = sys.spawn("holder", 3, c4);
    Process& watcher = sys.spawn("watcher", 3, c4);

    const CapId root =
        sys.await_ok(provider.memory_create(provider.alloc(8192), 8192, Perms::kReadWrite));
    const CapId root_h = sys.bootstrap_grant(provider, root, holder).value();
    // 4-level chain, every level owned by the replicated seat (derivation-at-owner).
    const CapId l1 = sys.await_ok(holder.cap_create_revtree(root_h));
    const CapId l2 = sys.await_ok(holder.cap_create_revtree(l1));
    const CapId l3 = sys.await_ok(holder.cap_create_revtree(l2));
    const CapId l4 = sys.await_ok(holder.cap_create_revtree(l3));
    const CapId l2_w = sys.bootstrap_grant(holder, l2, watcher).value();
    const CapId l4_w = sys.bootstrap_grant(holder, l4, watcher).value();
    std::map<uint64_t, int> fires;
    watcher.set_monitor_handler([&](uint64_t cb, bool) { ++fires[cb]; });
    ASSERT_TRUE(sys.await(watcher.monitor_receive(l2_w, 2)).ok());
    ASSERT_TRUE(sys.await(watcher.monitor_receive(l4_w, 4)).ok());

    // Kill the leader `kill_step` events into the revocation of l2 (subtree l2/l3/l4).
    auto revoked = holder.cap_revoke(l2);
    sys.loop().run(kill_step);
    const Time killed = sys.loop().now();
    sys.fail_controller(c1);

    // A replica takes over within the lease bound; rank order makes it c2 every time.
    ASSERT_TRUE(sys.loop().run_until(
        [&]() { return c2.serves_seat(seat) || c3.serves_seat(seat); }))
        << "kill_step " << kill_step;
    EXPECT_LE((sys.loop().now() - killed).ns(), cfg.replication.lease.ns())
        << "kill_step " << kill_step;
    EXPECT_NE(c2.serves_seat(seat), c3.serves_seat(seat)) << "kill_step " << kill_step;
    sys.loop().run_until_time(sys.loop().now() + Duration::millis(2));

    // The in-flight revocation resolved one way or the other. If its outcome was unknown
    // (leader died holding it), the retry at the takeover leader must land terminally:
    // kOk (it never committed) or kRevoked (it did, and the takeover finished the cleanup).
    ASSERT_TRUE(revoked.ready()) << "kill_step " << kill_step;
    const Status first = revoked.take();
    if (!first.ok()) {
      // Terminal either way: kOk (never committed — ran fresh at the takeover), or
      // kRevoked / kInvalidCapability (committed before the kill — the cap is a tombstone
      // or already erased; the takeover leader finishes the cleanup broadcast).
      const Status retry = sys.await(holder.cap_revoke(l2));
      EXPECT_TRUE(retry.ok() || retry.error() == ErrorCode::kRevoked ||
                  retry.error() == ErrorCode::kInvalidCapability)
          << "kill_step " << kill_step << ": " << error_code_name(retry.error());
    }
    sys.loop().run_until_time(sys.loop().now() + Duration::millis(2));

    // No stale capability honored: nothing under l2 derives at the takeover leader.
    for (const CapId stale : {l2, l3, l4}) {
      const Result<CapId> derived = sys.await(holder.cap_create_revtree(stale));
      ASSERT_FALSE(derived.ok()) << "kill_step " << kill_step;
      EXPECT_TRUE(derived.error() == ErrorCode::kRevoked ||
                  derived.error() == ErrorCode::kInvalidCapability)
          << "kill_step " << kill_step << ": " << error_code_name(derived.error());
    }
    // No committed grant lost: the untouched levels still derive.
    EXPECT_NE(sys.await_ok(holder.cap_create_revtree(l1)), kInvalidCap)
        << "kill_step " << kill_step;
    EXPECT_NE(sys.await_ok(holder.cap_create_revtree(root_h)), kInvalidCap)
        << "kill_step " << kill_step;

    // Monitors fired at most once each across the failover (never twice, even though the
    // takeover leader re-broadcasts cleanup for revocations the dead leader started).
    for (const auto& [cb, count] : fires) {
      EXPECT_LE(count, 1) << "callback " << cb << " kill_step " << kill_step;
    }

    // Replica audit: both survivors converged to the same structural digest, and the
    // cleanup protocol fully drained on every live Controller.
    sys.loop().run_until_time(sys.loop().now() + Duration::millis(2));
    const uint64_t digest = c2.seat_state_digest(seat);
    EXPECT_NE(digest, 0u) << "kill_step " << kill_step;
    EXPECT_EQ(digest, c3.seat_state_digest(seat)) << "kill_step " << kill_step;
    EXPECT_EQ(c2.pending_cleanups() + c3.pending_cleanups() + c4.pending_cleanups(), 0u)
        << "kill_step " << kill_step;

    for (Controller* c : {&c2, &c3}) {
      if (ReplicationGroup* g = c->replication_group(seat)) {
        g->stop(ErrorCode::kAborted);
      }
    }
    sys.loop().run();
    if (trace_dir != nullptr) {
      sys.loop().set_span_tracer(nullptr);
      const std::string path = std::string(trace_dir) + "/failover_seed" +
                               std::to_string(base_seed()) + "_step" +
                               std::to_string(fail_step) + ".json";
      if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        const std::string json = chrome_trace_json(tracer);
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
      }
    }
  }
}

}  // namespace
}  // namespace fractos
