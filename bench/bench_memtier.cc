// Far-memory tier bench (DESIGN.md §4k, EXPERIMENTS.md "Far-memory placement sweep"):
// dual-granularity data movement vs a page-only baseline, and the MIND-style translation
// placement sweep.
//
// One 4-node fat_tree(2, 2): the client (rack 0) attaches a 2 MiB segment exported by a
// memory node (rack 1), so every fault crosses the rack bisection. Three access phases, each
// a deterministic Splitmix64 stream over 64 B cachelines:
//   * uniform    — cold-dominated, measures raw fault cost;
//   * zipfian    — idx = N * u^6, heavily skewed; where small local caches earn their keep;
//   * sequential — a full-segment scan; where streak prefetch earns its keep.
//
// Modes compared at EQUAL local cache budget (48 KiB):
//   * dual      — 64 B demand fetches on the fabric's hot lane (30% bandwidth slice) plus
//                 4 KiB streak prefetches on the bulk lane; 256-line + 8-page cache;
//   * page_only — every fault synchronously moves a 4 KiB page on an unpartitioned link;
//                 12-page cache.
//
// The run CHECK-fails unless dual beats page_only on zipfian p99 AND moves fewer fabric
// bytes in that phase — the DaeMon claim this bench exists to reproduce — and re-runs the
// dual/zipfian configuration to assert byte-identical determinism.
//
// The placement sweep reruns the zipfian phase (dual mode) with translation at the owner
// CPU, the owner SmartNIC, and in the ToR switch, span-tracing every access and folding the
// disaggregation-tax buckets (farmem / translation / fabric / fabric.queue / queue / other);
// per-access bucket sums are CHECKed against end-to-end latency, and aggregate translation
// time must order tor < owner-cpu < snic.
//
// Emits BENCH_memtier.json (override: FRACTOS_BENCH_JSON); CI gates the file exactly apart
// from its "host" member (wall time, peak RSS): the simulation is deterministic, so any drift
// is a real model change. FRACTOS_TRACE_JSON / FRACTOS_METRICS_OUT (bench/bench_util.h) dump
// the span trace and the metrics of the owner-cpu placement run.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/services/farmem.h"
#include "src/services/mempool.h"
#include "src/sim/span.h"
#include "src/sim/tax_report.h"
#include "src/sim/workload.h"

namespace fractos {
namespace {

using bench::Table;

constexpr uint64_t kSegmentBytes = 2ull << 20;
constexpr uint64_t kLineBytes = 64;
constexpr uint64_t kPageBytes = 4096;
constexpr uint64_t kNumLines = kSegmentBytes / kLineBytes;
constexpr double kHotLaneShare = 0.3;
constexpr double kZipfExponent = 6.0;

constexpr uint64_t kUniformAccesses = 3000;
constexpr uint64_t kZipfianAccesses = 4000;
constexpr uint64_t kSweepAccesses = 2000;
constexpr uint64_t kSeedBase = 12345;

uint8_t expected_byte(uint64_t offset) {
  return static_cast<uint8_t>(offset * 131 + 7);
}

// Deterministic per-phase line-index streams (one Splitmix64 stream each, so adding a phase
// never perturbs another's sequence).
struct LineStream {
  enum Kind { kUniform, kZipfian, kSequential };
  Kind kind;
  Splitmix64 rng;
  uint64_t next_seq = 0;

  LineStream(Kind k, uint64_t seed) : kind(k), rng(seed) {}

  uint64_t next() {
    switch (kind) {
      case kUniform:
        return rng.next() % kNumLines;
      case kZipfian: {
        // Inverse-transform power law: u^6 concentrates ~35% of accesses on the first page.
        const double u = rng.next_double();
        const uint64_t idx =
            static_cast<uint64_t>(static_cast<double>(kNumLines) * std::pow(u, kZipfExponent));
        return std::min(idx, kNumLines - 1);
      }
      case kSequential:
        return next_seq++ % kNumLines;
    }
    return 0;
  }
};

struct PhaseResult {
  std::string name;
  uint64_t accesses = 0;
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  int64_t mean_ns = 0;
  uint64_t fabric_bytes = 0;  // wire bytes (payload + headers) moved during the phase
  FarMemClient::Stats stats;  // deltas over the phase
};

struct ModeResult {
  std::string name;
  std::vector<PhaseResult> phases;
};

// One cluster: client on node 0 (rack 0), memory node 2 (rack 1). Far-mem traffic crosses
// the bisection; nodes 1 and 3 only fill out the racks.
struct Cluster {
  System sys;
  std::unique_ptr<MemPoolService> pool;
  Process* client = nullptr;
  Controller* client_ctrl = nullptr;
  FarMemSegment seg;

  explicit Cluster(double hot_lane_share) : sys(make_config(hot_lane_share)) {
    for (const char* name : {"mt-client", "mt-idle0", "mt-mem", "mt-idle1"}) {
      sys.add_node(name);
    }
    client_ctrl = &sys.add_controller(0, Loc::kHost);
    Controller& mem_ctrl = sys.add_controller(2, Loc::kHost);
    pool = MemPoolService::bootstrap(&sys, 2, mem_ctrl, kSegmentBytes + kPageBytes);
    client = &sys.spawn("mt-client", 0, *client_ctrl, 1 << 20);
    const CapId attach =
        sys.bootstrap_grant(pool->process(), pool->attach_endpoint(), *client).value();
    seg = sys.await_ok(MemPoolClient::attach(*client, attach, "bench", kSegmentBytes));
    FRACTOS_CHECK(seg.size == kSegmentBytes);
    // Deterministic segment contents, written straight into the exported pool (deployment
    // prep, not simulated traffic); every read below verifies against it.
    PoolBytes& bytes = sys.net().node(2).pool(pool->pool());
    for (uint64_t i = 0; i < kSegmentBytes; ++i) {
      bytes[seg.addr + i] = expected_byte(i);
    }
  }

  static SystemConfig make_config(double hot_lane_share) {
    SystemConfig cfg;
    cfg.topology = TopologySpec::fat_tree(2, 2);
    cfg.topology.sw.hot_lane_share = hot_lane_share;
    return cfg;
  }
};

FarMemClient::Config client_config(bool dual, XlatePlacement placement) {
  FarMemClient::Config cfg;
  cfg.dual_granularity = dual;
  cfg.placement = placement;
  // Equal 48 KiB local budget: 256 lines + 8 pages (dual) vs 12 pages (page-only).
  cfg.line_slots = 256;
  cfg.page_slots = dual ? 8 : 12;
  return cfg;
}

// Serial closed loop: each access issues in the previous one's completion, its latency is
// the loop-time delta, and its value is verified against the segment pattern.
void run_phase(Cluster& c, FarMemClient& fm, LineStream stream, uint64_t accesses,
               const char* phase_name, PhaseResult* out,
               SpanTracer* tracer = nullptr, std::vector<uint64_t>* trace_ids = nullptr) {
  EventLoop& loop = c.sys.loop();
  const uint64_t fabric_before = c.sys.net().counters().total_bytes();
  const FarMemClient::Stats stats_before = fm.stats();

  std::vector<int64_t> lat;
  lat.reserve(accesses);
  uint64_t completed = 0;
  std::function<void()> issue = [&]() {
    const uint64_t offset = stream.next() * kLineBytes;
    const Time t0 = loop.now();
    uint64_t trace = 0;
    if (tracer != nullptr) {
      trace = tracer->start_trace("memtier", phase_name, t0);
      trace_ids->push_back(trace);
    }
    // Scope only covers the issue: scheduled events capture the ambient context.
    SpanScope scope(tracer != nullptr ? tracer->context_of(trace) : SpanContext{});
    fm.read(offset, kLineBytes, [&, offset, t0, trace](Result<std::vector<uint8_t>>&& r) {
      FRACTOS_CHECK(r.ok());
      FRACTOS_CHECK_MSG(r.value().size() == kLineBytes &&
                            r.value()[0] == expected_byte(offset) &&
                            r.value()[kLineBytes - 1] == expected_byte(offset + kLineBytes - 1),
                        "far-mem read returned wrong bytes");
      lat.push_back((loop.now() - t0).ns());
      if (tracer != nullptr) {
        tracer->end(trace, loop.now());
      }
      if (++completed < accesses) {
        issue();
      }
    });
  };
  issue();
  FRACTOS_CHECK(loop.run_until([&]() { return completed == accesses; }));

  std::sort(lat.begin(), lat.end());
  int64_t sum = 0;
  for (int64_t v : lat) {
    sum += v;
  }
  out->name = phase_name;
  out->accesses = accesses;
  out->p50_ns = lat[lat.size() / 2];
  out->p99_ns = lat[lat.size() * 99 / 100];
  out->mean_ns = sum / static_cast<int64_t>(lat.size());
  out->fabric_bytes = c.sys.net().counters().total_bytes() - fabric_before;
  const FarMemClient::Stats& s = fm.stats();
  out->stats.accesses = s.accesses - stats_before.accesses;
  out->stats.line_hits = s.line_hits - stats_before.line_hits;
  out->stats.page_hits = s.page_hits - stats_before.page_hits;
  out->stats.demand_fetches = s.demand_fetches - stats_before.demand_fetches;
  out->stats.prefetches = s.prefetches - stats_before.prefetches;
  out->stats.prefetch_waits = s.prefetch_waits - stats_before.prefetch_waits;
  out->stats.hot_bytes = s.hot_bytes - stats_before.hot_bytes;
  out->stats.bulk_bytes = s.bulk_bytes - stats_before.bulk_bytes;
}

ModeResult run_mode(bool dual) {
  Cluster c(dual ? kHotLaneShare : 0.0);
  FarMemClient fm(&c.sys, *c.client, *c.client_ctrl, c.seg.mem,
                  client_config(dual, XlatePlacement::kOwnerCpu));
  ModeResult out;
  out.name = dual ? "dual" : "page_only";
  out.phases.resize(3);
  run_phase(c, fm, LineStream(LineStream::kUniform, kSeedBase + 1), kUniformAccesses,
            "uniform", &out.phases[0]);
  run_phase(c, fm, LineStream(LineStream::kZipfian, kSeedBase + 2), kZipfianAccesses,
            "zipfian", &out.phases[1]);
  run_phase(c, fm, LineStream(LineStream::kSequential, kSeedBase + 3), kNumLines / 8,
            "sequential", &out.phases[2]);
  return out;
}

// --- placement sweep --------------------------------------------------------------------------

struct SweepResult {
  std::string placement;
  uint64_t accesses = 0;
  TaxBreakdown tax;  // summed over every access trace
};

SweepResult run_placement(XlatePlacement placement, bool observed) {
  Cluster c(kHotLaneShare);
  SpanTracer tracer;
  MetricsRegistry metrics;
  c.sys.loop().set_span_tracer(&tracer);
  if (observed) {
    c.sys.loop().set_metrics(&metrics);
  }
  FarMemClient fm(&c.sys, *c.client, *c.client_ctrl, c.seg.mem,
                  client_config(/*dual=*/true, placement));
  PhaseResult phase;
  std::vector<uint64_t> traces;
  traces.reserve(kSweepAccesses);
  run_phase(c, fm, LineStream(LineStream::kZipfian, kSeedBase + 4), kSweepAccesses,
            "zipfian", &phase, &tracer, &traces);
  c.sys.loop().set_span_tracer(nullptr);
  c.sys.loop().set_metrics(nullptr);

  SweepResult out;
  out.placement = xlate_placement_name(placement);
  out.accesses = kSweepAccesses;
  for (uint64_t id : traces) {
    const TaxBreakdown bd = fold_tax(tracer, id);
    // The tax attribution must account for every nanosecond of every access.
    FRACTOS_CHECK_MSG(bd.sum_ns() == bd.total_ns, "tax buckets do not sum to access latency");
    out.tax += bd;
  }
  if (observed) {
    bench::write_observability(&tracer, &metrics);
  }
  return out;
}

// --- output -----------------------------------------------------------------------------------

void print_modes(const std::vector<ModeResult>& modes) {
  Table t("far-memory dual-granularity vs page-only (per phase)",
          {"mode", "phase", "p50 ns", "p99 ns", "mean ns", "fabric bytes", "demand", "prefetch",
           "line hits", "page hits", "pf waits"});
  for (const ModeResult& m : modes) {
    for (const PhaseResult& p : m.phases) {
      t.row({m.name, p.name, std::to_string(p.p50_ns), std::to_string(p.p99_ns),
             std::to_string(p.mean_ns), std::to_string(p.fabric_bytes),
             std::to_string(p.stats.demand_fetches), std::to_string(p.stats.prefetches),
             std::to_string(p.stats.line_hits), std::to_string(p.stats.page_hits),
             std::to_string(p.stats.prefetch_waits)});
    }
  }
  t.print();
}

void print_sweep(const std::vector<SweepResult>& sweep) {
  std::vector<std::pair<std::string, TaxBreakdown>> rows;
  for (const SweepResult& s : sweep) {
    rows.emplace_back(s.placement, s.tax);
  }
  std::printf("\n=== translation placement sweep — summed tax over %" PRIu64
              " zipfian accesses ===\n%s",
              kSweepAccesses, tax_table(rows).c_str());
}

void append_phase_json(std::string& out, const PhaseResult& p, bool last) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "      {\"name\": \"%s\", \"accesses\": %" PRIu64 ", \"p50_ns\": %" PRId64
      ", \"p99_ns\": %" PRId64 ", \"mean_ns\": %" PRId64 ", \"fabric_bytes\": %" PRIu64
      ", \"demand_fetches\": %" PRIu64 ", \"prefetches\": %" PRIu64 ", \"line_hits\": %" PRIu64
      ", \"page_hits\": %" PRIu64 ", \"prefetch_waits\": %" PRIu64 ", \"hot_bytes\": %" PRIu64
      ", \"bulk_bytes\": %" PRIu64 "}%s\n",
      p.name.c_str(), p.accesses, p.p50_ns, p.p99_ns, p.mean_ns, p.fabric_bytes,
      p.stats.demand_fetches, p.stats.prefetches, p.stats.line_hits, p.stats.page_hits,
      p.stats.prefetch_waits, p.stats.hot_bytes, p.stats.bulk_bytes, last ? "" : ",");
  out += buf;
}

void write_json(const std::vector<ModeResult>& modes, const std::vector<SweepResult>& sweep,
                const std::string& host) {
  char buf[512];
  std::string out = "{\n  \"bench\": \"memtier\",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"segment_bytes\": %" PRIu64 ", \"line_bytes\": %" PRIu64
                ", \"page_bytes\": %" PRIu64 ", \"hot_lane_share_pct\": %d,\n  \"modes\": [\n",
                kSegmentBytes, kLineBytes, kPageBytes,
                static_cast<int>(kHotLaneShare * 100));
  out += buf;
  for (size_t m = 0; m < modes.size(); ++m) {
    out += "    {\"name\": \"" + modes[m].name + "\", \"phases\": [\n";
    for (size_t i = 0; i < modes[m].phases.size(); ++i) {
      append_phase_json(out, modes[m].phases[i], i + 1 == modes[m].phases.size());
    }
    out += m + 1 < modes.size() ? "    ]},\n" : "    ]}\n";
  }
  out += "  ],\n  \"placement_sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepResult& s = sweep[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"placement\": \"%s\", \"accesses\": %" PRIu64
                  ", \"total_ns\": %" PRId64 ", \"farmem_ns\": %" PRId64
                  ", \"translation_ns\": %" PRId64 ", \"fabric_ns\": %" PRId64
                  ", \"fabric_queue_ns\": %" PRId64 ", \"queue_ns\": %" PRId64
                  ", \"other_ns\": %" PRId64 "}%s\n",
                  s.placement.c_str(), s.accesses, s.tax.total_ns,
                  s.tax.ns[static_cast<size_t>(TaxBucket::kFarMem)],
                  s.tax.ns[static_cast<size_t>(TaxBucket::kTranslation)],
                  s.tax.ns[static_cast<size_t>(TaxBucket::kFabric)],
                  s.tax.ns[static_cast<size_t>(TaxBucket::kFabricQueue)],
                  s.tax.ns[static_cast<size_t>(TaxBucket::kQueue)],
                  s.tax.ns[static_cast<size_t>(TaxBucket::kOther)],
                  i + 1 < sweep.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n  " + host + "\n}\n";
  bench::emit_bench_json("bench_memtier", "BENCH_memtier.json", out);
}

}  // namespace
}  // namespace fractos

int main() {
  using namespace fractos;
  const auto run_start = std::chrono::steady_clock::now();
  std::printf("Far-memory tier: dual-granularity movement and translation placement\n");

  std::vector<ModeResult> modes;
  modes.push_back(run_mode(/*dual=*/true));
  modes.push_back(run_mode(/*dual=*/false));
  print_modes(modes);

  // Acceptance: on the zipfian phase, dual-granularity must beat page-only on tail latency
  // AND move fewer fabric bytes — the point of fetching 64 B instead of 4 KiB on a miss.
  const PhaseResult& dual_zipf = modes[0].phases[1];
  const PhaseResult& page_zipf = modes[1].phases[1];
  FRACTOS_CHECK_MSG(dual_zipf.p99_ns < page_zipf.p99_ns,
                    "dual-granularity lost the zipfian p99 to the page-only baseline");
  FRACTOS_CHECK_MSG(dual_zipf.fabric_bytes < page_zipf.fabric_bytes,
                    "dual-granularity moved more fabric bytes than the page-only baseline");
  // Sequential scans must actually engage the prefetcher, and in-flight pages must absorb
  // some accesses (the dual path's bulk lane at work).
  FRACTOS_CHECK_MSG(modes[0].phases[2].stats.prefetches > 0, "sequential scan never prefetched");

  // Determinism: an identical rerun must reproduce the dual-mode numbers exactly.
  const ModeResult rerun = run_mode(/*dual=*/true);
  for (size_t i = 0; i < rerun.phases.size(); ++i) {
    FRACTOS_CHECK_MSG(rerun.phases[i].p50_ns == modes[0].phases[i].p50_ns &&
                          rerun.phases[i].p99_ns == modes[0].phases[i].p99_ns &&
                          rerun.phases[i].mean_ns == modes[0].phases[i].mean_ns &&
                          rerun.phases[i].fabric_bytes == modes[0].phases[i].fabric_bytes,
                      "same-seed rerun diverged");
  }

  std::vector<SweepResult> sweep;
  sweep.push_back(run_placement(XlatePlacement::kOwnerCpu, /*observed=*/true));
  sweep.push_back(run_placement(XlatePlacement::kSnic, /*observed=*/false));
  sweep.push_back(run_placement(XlatePlacement::kTor, /*observed=*/false));
  print_sweep(sweep);

  // The MIND ordering: in-network translation is cheapest, the SmartNIC's slow cores dearest.
  const int64_t cpu_x = sweep[0].tax.ns[static_cast<size_t>(TaxBucket::kTranslation)];
  const int64_t snic_x = sweep[1].tax.ns[static_cast<size_t>(TaxBucket::kTranslation)];
  const int64_t tor_x = sweep[2].tax.ns[static_cast<size_t>(TaxBucket::kTranslation)];
  FRACTOS_CHECK_MSG(tor_x < cpu_x && cpu_x < snic_x,
                    "translation placement ordering violated (want tor < owner-cpu < snic)");

  write_json(modes, sweep, bench::host_json(run_start));
  std::printf("\nOK\n");
  return 0;
}
