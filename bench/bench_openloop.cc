// Open-loop multi-tenant latency-vs-offered-load sweep: FractOS vs the CPU-centric baseline
// sharing one 12-node fat tree (DESIGN.md §4i, EXPERIMENTS.md "Latency vs offered load").
//
// bench_scaleout's closed-loop driver cannot show the knee: under overload it slows down with
// the system, so offered load silently deflates exactly where the curve gets interesting. Here
// an OpenLoopEngine draws per-tenant arrival schedules (Poisson, bursty on/off, diurnal — one
// kind per tenant, same seeds for both deployments, so both face byte-identical offered
// traffic) and issues each request at its appointed simulated time regardless of what is still
// in flight. Offered load is the x-axis; queueing collapse lands where it belongs, in p99.
//
// Three tenants share the fabric, striped so every data path crosses rack boundaries:
//   * facever   — FaceVerify{Fractos,Baseline}, Poisson arrivals
//   * storage   — 64 KiB random file reads (DAX vs NVMe-oF + page-cache relay), on/off bursts
//   * inference — CloudInference ring vs star, diurnal-modulated arrivals
// The baseline ships each payload across the bisection ~2x as often as FractOS (NVMe-oF +
// NFS + rCUDA relays; the centralized star's 4 frontend legs), so as offered load rises the
// baseline's shared-queue p99 collapses first. The run CHECK-fails if the baseline's knee
// does not come before FractOS's, or if FractOS's aggregate p99 ever loses.
//
// A final past-knee point reruns FractOS with Controller admission control on the storage
// client (System::set_admission): offered load beyond capacity is shed fail-fast with
// kOverloaded and the admitted requests keep a bounded p99 — the overload-control story the
// open-loop harness exists to measure.
//
// Emits BENCH_openloop.json (override: FRACTOS_BENCH_JSON); CI gates the file exactly apart
// from its "host" member (wall time, peak RSS): the simulation is deterministic, so any drift
// is a real model change. FRACTOS_TRACE_JSON / FRACTOS_METRICS_OUT (bench/bench_util.h) dump
// the span trace and the metrics of the highest-load FractOS run.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/cloud_inference.h"
#include "src/apps/face_verify.h"
#include "src/baselines/baseline_fs.h"
#include "src/baselines/nvmeof.h"
#include "src/baselines/page_cache.h"
#include "src/sim/rng.h"
#include "src/sim/span.h"
#include "src/sim/workload.h"

namespace fractos {
namespace {

using bench::Table;
using bench::fmt;

// --- shared cluster ---------------------------------------------------------------------------
//
// fat_tree(3, 2): 4 racks of 3 nodes, 2 spines. CloudInference allocates its own 5 nodes, so
// the 7 explicit nodes go first and the id order fixes rack placement:
//   rack 0: fv-frontend(0)  fv-gpu(1)      st-client(2)
//   rack 1: fv-fs(3)        st-fs(4)       st-storage(5)
//   rack 2: fv-storage(6)   ci-frontend(7) ci-fs(8)
//   rack 3: ci-input(9)     ci-output(10)  ci-gpu(11)
// FaceVerify's database leg crosses rack 2 -> rack 0 once under FractOS and twice under the
// baseline (NVMe-oF to rack 1, NFS to rack 0); CloudInference's ring crosses twice vs the
// star's four frontend legs; the storage relay shares rack 1's ToR with FaceVerify's FS.

constexpr uint64_t kStorageFileBytes = 4ull << 20;
constexpr uint64_t kStorageIo = 64 << 10;
constexpr int kStorageBufs = 64;  // reused round-robin; overlap under overload is harmless

constexpr Duration kHorizon = Duration::millis(150);

// Offered load at factor 1.0, in requests/second of simulated time per tenant — chosen to sit
// just below the BASELINE deployment's measured capacity, so the sweep's upper factors push
// the baseline past its knee while FractOS (roughly 2x the capacity on the same fabric) stays
// on the flat part of its curve.
constexpr double kFaceverBaseRps = 1400.0;
constexpr double kStorageBaseRps = 3600.0;
constexpr double kInferBaseRps = 650.0;

FaceVerifyParams facever_params() {
  FaceVerifyParams p;
  p.image_bytes = 32 << 10;
  p.images_per_batch = 4;
  p.num_batches = 4;
  p.pool_slots = 2;
  p.per_image_compute = Duration::micros(120);
  return p;
}

CloudInferenceParams inference_params() {
  CloudInferenceParams p;
  p.request_bytes = 256 << 10;
  p.num_inputs = 4;
  p.pool_slots = 2;
  p.compute = Duration::micros(400);
  return p;
}

// Per-tenant arrival specs at one load factor. Same seeds for both deployments: identical
// offered traffic, so the latency curves differ only by what the system does with it.
ArrivalSpec facever_arrivals(double load) {
  return ArrivalSpec::poisson(kFaceverBaseRps * load);
}
ArrivalSpec storage_arrivals(double load) {
  // 50% duty cycle at twice the mean rate: mean = kStorageBaseRps * load.
  return ArrivalSpec::on_off(2.0 * kStorageBaseRps * load, Duration::millis(2),
                             Duration::millis(2));
}
ArrivalSpec inference_arrivals(double load) {
  return ArrivalSpec::diurnal(kInferBaseRps * load, 0.3, Duration::millis(30));
}

Status result_to_status(const Result<bool>& r) {
  if (!r.ok()) {
    return Status(r.error());
  }
  return r.value() ? ok_status() : Status(ErrorCode::kInternal);
}

// The storage tenant's pod, shared shape for both deployments (only the FS stack differs).
struct StorageFractosPod {
  std::unique_ptr<SimNvme> nvme;
  std::unique_ptr<BlockAdaptor> block;
  std::unique_ptr<FsService> fs;
  Process* client = nullptr;
  FsClient::OpenFile file;
  std::vector<CapId> bufs;
  Rng rng{0};
  int in_use = 0;

  StorageFractosPod(System& sys, uint32_t cn, uint32_t fn, uint32_t sn) {
    Controller& cc = sys.add_controller(cn, Loc::kHost);
    Controller& cf = sys.add_controller(fn, Loc::kHost);
    Controller& cs = sys.add_controller(sn, Loc::kHost);
    nvme = std::make_unique<SimNvme>(&sys.loop());
    block = std::make_unique<BlockAdaptor>(&sys, sn, cs, nvme.get());
    fs = FsService::bootstrap(&sys, fn, cf, block->process(), block->mgmt_endpoint());
    client = &sys.spawn("st-client", cn, cc, kStorageBufs * kStorageIo + (2 << 20));
    const CapId create_ep =
        sys.bootstrap_grant(fs->process(), fs->create_endpoint(), *client).value();
    const CapId open_ep =
        sys.bootstrap_grant(fs->process(), fs->open_endpoint(), *client).value();
    FRACTOS_CHECK(
        sys.await(FsClient::create(*client, create_ep, "bench", kStorageFileBytes)).ok());
    file = sys.await_ok(FsClient::open(*client, open_ep, "bench", /*rw=*/false, /*dax=*/true));
    for (int i = 0; i < kStorageBufs; ++i) {
      bufs.push_back(sys.await_ok(
          client->memory_create(client->alloc(kStorageIo), kStorageIo, Perms::kReadWrite)));
    }
    rng = Rng(1000);
  }

  uint64_t next_offset() {
    return rng.next_below((kStorageFileBytes - kStorageIo) / 4096 + 1) * 4096;
  }
};

struct StorageBaselinePod {
  std::unique_ptr<SimNvme> nvme;
  std::unique_ptr<NvmeofTarget> target;
  std::unique_ptr<NvmeofInitiator> initiator;
  std::unique_ptr<PageCache> cache;
  std::unique_ptr<BaselineFs> fs;
  Process* client = nullptr;
  FsClient::OpenFile file;
  std::vector<CapId> bufs;
  Rng rng{0};
  int in_use = 0;

  StorageBaselinePod(System& sys, uint32_t cn, uint32_t fn, uint32_t sn) {
    Controller& cc = sys.add_controller(cn, Loc::kHost);
    Controller& cf = sys.add_controller(fn, Loc::kHost);
    nvme = std::make_unique<SimNvme>(&sys.loop());
    target = std::make_unique<NvmeofTarget>(&sys.net(), sn, nvme.get());
    initiator = std::make_unique<NvmeofInitiator>(&sys.net(), fn, target.get());
    PageCache::Params cp;
    cp.capacity_pages = 64;
    cp.readahead_pages = 16;
    cache = std::make_unique<PageCache>(&sys.loop(), initiator.get(), cp);
    fs = std::make_unique<BaselineFs>(&sys, fn, cf, cache.get());
    client = &sys.spawn("st-client", cn, cc, kStorageBufs * kStorageIo + (2 << 20));
    const CapId create_ep =
        sys.bootstrap_grant(fs->process(), fs->create_endpoint(), *client).value();
    const CapId open_ep =
        sys.bootstrap_grant(fs->process(), fs->open_endpoint(), *client).value();
    FRACTOS_CHECK(
        sys.await(FsClient::create(*client, create_ep, "bench", kStorageFileBytes)).ok());
    file = sys.await_ok(FsClient::open(*client, open_ep, "bench", /*rw=*/false, /*dax=*/false));
    for (int i = 0; i < kStorageBufs; ++i) {
      bufs.push_back(sys.await_ok(
          client->memory_create(client->alloc(kStorageIo), kStorageIo, Perms::kReadWrite)));
    }
    rng = Rng(1000);  // same seed as FractOS: identical offset sequence
  }

  uint64_t next_offset() {
    return rng.next_below((kStorageFileBytes - kStorageIo) / 4096 + 1) * 4096;
  }
};

// --- measurement ------------------------------------------------------------------------------

struct TenantPoint {
  std::string name;
  double offered_rps = 0;
  double goodput_rps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double drop_rate = 0;
  uint64_t shed = 0;
};

struct RunPoint {
  std::vector<TenantPoint> tenants;
  double agg_p99_us = 0;  // worst tenant tail: the SLO a shared fabric must defend
};

struct Point {
  double load = 0;
  RunPoint fractos;
  RunPoint baseline;
};

TenantPoint tenant_point(const OpenLoopEngine& eng, size_t i) {
  const TenantSlo& slo = eng.slo(i);
  TenantPoint t;
  t.name = eng.spec(i).name;
  t.offered_rps = static_cast<double>(slo.offered) / eng.horizon().to_seconds();
  t.goodput_rps = slo.goodput_rps;
  t.p50_us = slo.p50();
  t.p99_us = slo.p99();
  t.p999_us = slo.p999();
  t.drop_rate = slo.drop_rate();
  t.shed = slo.shed;
  return t;
}

// Builds one deployment (fractos or baseline), runs the three-tenant open-loop engine at
// `load`, and reports per-tenant SLOs. `storage_admission` > 0 gates the storage client's
// Controller at that many in-flight invokes; `storage_boost` multiplies only the storage
// tenant's offered rate (the overload-control point drives that tenant past the SSD's
// capacity while the sweep keeps all three tenants on a common load axis).
template <bool kFractos>
RunPoint run_openloop(double load, uint32_t storage_admission, bool observed,
                      double storage_boost = 1.0) {
  SystemConfig cfg;
  cfg.topology = TopologySpec::fat_tree(3, 2);
  System sys(cfg);
  SpanTracer tracer;
  MetricsRegistry metrics;
  if (observed) {
    sys.loop().set_span_tracer(&tracer);
    sys.loop().set_metrics(&metrics);
  }

  for (const char* name : {"fv-frontend", "fv-gpu", "st-client", "fv-fs", "st-fs",
                           "st-storage", "fv-storage"}) {
    sys.add_node(name);
  }

  FaceVerifyCluster fv;
  fv.frontend_node = 0;
  fv.gpu_node = 1;
  fv.fs_node = 3;
  fv.storage_node = 6;
  fv.nvme = std::make_unique<SimNvme>(&sys.loop());
  fv.gpu = std::make_unique<SimGpu>(&sys.net(), fv.gpu_node);

  using FaceApp = std::conditional_t<kFractos, FaceVerifyFractos, FaceVerifyBaseline>;
  using StoragePod = std::conditional_t<kFractos, StorageFractosPod, StorageBaselinePod>;

  std::unique_ptr<FaceApp> facever;
  if constexpr (kFractos) {
    facever = std::make_unique<FaceApp>(&sys, &fv, Loc::kHost, facever_params());
  } else {
    facever = std::make_unique<FaceApp>(&sys, &fv, facever_params());
  }
  facever->ingest_database();

  StoragePod storage(sys, /*cn=*/2, /*fn=*/4, /*sn=*/5);

  CloudInference inference(&sys, Loc::kHost, inference_params());  // adds nodes 7..11
  inference.ingest();

  // Warm-ups: first-touch allocations, cache fills, DAX opens — steady state before t = 0.
  sys.await_ok(facever->verify(0));
  FRACTOS_CHECK(
      sys.await_status(FsClient::read(*storage.client, storage.file, 0, kStorageIo,
                                      storage.bufs[0]))
          .ok());
  sys.await_ok(kFractos ? inference.infer_distributed(0) : inference.infer_centralized(0));

  if (storage_admission > 0) {
    sys.set_admission(*storage.client, storage_admission);
  }

  OpenLoopEngine eng(&sys.loop(), kHorizon);

  TenantSpec fv_spec;
  fv_spec.name = "facever";
  fv_spec.arrivals = facever_arrivals(load);
  fv_spec.seed = 101;
  uint32_t fv_round = 0;
  eng.add_tenant(fv_spec, [&](OpenLoopEngine::DoneFn done) {
    const uint32_t batch = fv_round++ % facever_params().num_batches;
    facever->verify(batch).on_ready([done = std::move(done)](Result<bool>&& r) {
      done(result_to_status(r));
    });
  });

  TenantSpec st_spec;
  st_spec.name = "storage";
  st_spec.arrivals = storage_arrivals(load * storage_boost);
  st_spec.seed = 202;
  eng.add_tenant(st_spec, [&](OpenLoopEngine::DoneFn done) {
    const CapId buf = storage.bufs[static_cast<size_t>(storage.in_use++ % kStorageBufs)];
    FsClient::read(*storage.client, storage.file, storage.next_offset(), kStorageIo, buf)
        .on_ready([done = std::move(done)](Status s) { done(std::move(s)); });
  });

  TenantSpec ci_spec;
  ci_spec.name = "inference";
  ci_spec.arrivals = inference_arrivals(load);
  ci_spec.seed = 303;
  uint32_t ci_round = 0;
  eng.add_tenant(ci_spec, [&](OpenLoopEngine::DoneFn done) {
    const uint32_t input = ci_round++ % inference_params().num_inputs;
    auto f = kFractos ? inference.infer_distributed(input) : inference.infer_centralized(input);
    f.on_ready([done = std::move(done)](Result<bool>&& r) { done(result_to_status(r)); });
  });

  eng.run();

  RunPoint out;
  for (size_t i = 0; i < eng.num_tenants(); ++i) {
    TenantPoint t = tenant_point(eng, i);
    out.agg_p99_us = std::max(out.agg_p99_us, t.p99_us);
    out.tenants.push_back(std::move(t));
  }

  if (observed) {
    sys.loop().set_span_tracer(nullptr);
    sys.loop().set_metrics(nullptr);
    bench::write_observability(&tracer, &metrics);
  }
  return out;
}

// --- output -----------------------------------------------------------------------------------

void print_points(const std::vector<Point>& points) {
  for (const char* which : {"fractos", "baseline"}) {
    const bool is_fractos = std::string(which) == "fractos";
    Table t(std::string("open-loop sweep — ") + which +
                " (p99 us per tenant; drop = shed fraction of offered)",
            {"load", "facever p99", "storage p99", "inference p99", "agg p99", "goodput rps",
             "drop"});
    for (const Point& pt : points) {
      const RunPoint& rp = is_fractos ? pt.fractos : pt.baseline;
      double goodput = 0, drops = 0, offered = 0;
      for (const TenantPoint& tp : rp.tenants) {
        goodput += tp.goodput_rps;
        drops += tp.drop_rate * tp.offered_rps;
        offered += tp.offered_rps;
      }
      t.row({fmt(pt.load, 2), fmt(rp.tenants[0].p99_us, 1), fmt(rp.tenants[1].p99_us, 1),
             fmt(rp.tenants[2].p99_us, 1), fmt(rp.agg_p99_us, 1), fmt(goodput, 0),
             fmt(offered > 0 ? drops / offered : 0.0, 4)});
    }
    t.print();
  }
}

void append_tenant_json(std::string& out, const TenantPoint& t) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"%s\", \"offered_rps\": %.1f, \"goodput_rps\": %.1f, "
                "\"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": %.3f, "
                "\"drop_rate\": %.4f, \"shed\": %" PRIu64 "}",
                t.name.c_str(), t.offered_rps, t.goodput_rps, t.p50_us, t.p99_us, t.p999_us,
                t.drop_rate, t.shed);
  out += buf;
}

void append_run_json(std::string& out, const char* key, const RunPoint& rp) {
  char head[96];
  std::snprintf(head, sizeof(head), "\"%s\": {\"agg_p99_us\": %.3f, \"tenants\": [", key,
                rp.agg_p99_us);
  out += head;
  for (size_t i = 0; i < rp.tenants.size(); ++i) {
    append_tenant_json(out, rp.tenants[i]);
    if (i + 1 < rp.tenants.size()) {
      out += ", ";
    }
  }
  out += "]}";
}

void write_json(const std::vector<Point>& points, double control_load, double control_boost,
                uint32_t control_limit, const RunPoint& ungated, const RunPoint& gated,
                const std::string& host) {
  std::string out = "{\n  \"bench\": \"openloop\",\n  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    char head[48];
    std::snprintf(head, sizeof(head), "    {\"load\": %.2f,\n     ", points[i].load);
    out += head;
    append_run_json(out, "fractos", points[i].fractos);
    out += ",\n     ";
    append_run_json(out, "baseline", points[i].baseline);
    out += i + 1 < points.size() ? "},\n" : "}\n";
  }
  out += "  ],\n";
  char head[128];
  std::snprintf(head, sizeof(head),
                "  \"overload_control\": {\"load\": %.2f, \"storage_boost\": %.1f, "
                "\"admission_limit\": %u,\n   ",
                control_load, control_boost, control_limit);
  out += head;
  append_run_json(out, "ungated", ungated);
  out += ",\n   ";
  append_run_json(out, "admitted", gated);
  out += "\n  },\n  " + host + "\n}\n";
  bench::emit_bench_json("bench_openloop", "BENCH_openloop.json", out);
}

// The knee: first load factor whose aggregate p99 exceeds 4x the lowest-load aggregate p99
// (SIZE_MAX if the curve never leaves the flat region within the sweep).
size_t knee_index(const std::vector<Point>& points, bool fractos) {
  const double base =
      fractos ? points.front().fractos.agg_p99_us : points.front().baseline.agg_p99_us;
  for (size_t i = 0; i < points.size(); ++i) {
    const double p99 = fractos ? points[i].fractos.agg_p99_us : points[i].baseline.agg_p99_us;
    if (p99 > 4.0 * base) {
      return i;
    }
  }
  return SIZE_MAX;
}

void check_knee(const std::vector<Point>& points) {
  const size_t kb = knee_index(points, /*fractos=*/false);
  const size_t kf = knee_index(points, /*fractos=*/true);
  auto show = [&](size_t k) {
    return k == SIZE_MAX ? std::string("beyond sweep")
                         : "load " + fmt(points[k].load, 2);
  };
  std::printf("\nknee (agg p99 > 4x lowest-load agg p99): baseline at %s, FractOS at %s\n",
              show(kb).c_str(), show(kf).c_str());
  FRACTOS_CHECK_MSG(kb != SIZE_MAX, "baseline must knee within the sweep");
  FRACTOS_CHECK_MSG(kb < kf, "baseline p99 must diverge before FractOS p99");
  for (const Point& pt : points) {
    FRACTOS_CHECK_MSG(pt.fractos.agg_p99_us < pt.baseline.agg_p99_us,
                      "FractOS aggregate p99 must beat the baseline at every offered load");
  }
  const double fractos_added =
      points.back().fractos.agg_p99_us - points.front().fractos.agg_p99_us;
  const double baseline_added =
      points.back().baseline.agg_p99_us - points.front().baseline.agg_p99_us;
  std::printf("p99 added by %.2gx load: FractOS +%.1f us, baseline +%.1f us\n",
              points.back().load / points.front().load, fractos_added, baseline_added);
  FRACTOS_CHECK_MSG(baseline_added > fractos_added,
                    "baseline tail must inflate more than FractOS as load rises");
}

void check_overload_control(const RunPoint& ungated_run, const RunPoint& gated_run) {
  // The gated storage tenant sheds instead of queueing: a real slice of offered load is
  // refused fail-fast with kOverloaded...
  const TenantPoint& gated = gated_run.tenants[1];
  const TenantPoint& ungated = ungated_run.tenants[1];
  std::printf("overload control (storage past SSD capacity): ungated p99 %.1f us -> admitted "
              "p99 %.1f us, %" PRIu64 " shed (drop rate %.3f)\n",
              ungated.p99_us, gated.p99_us, gated.shed, gated.drop_rate);
  FRACTOS_CHECK_MSG(gated.shed > 100, "past-knee admission control must shed a real fraction");
  // ...and what IS admitted keeps a tail far below the same offered load run ungated.
  FRACTOS_CHECK_MSG(gated.p99_us < ungated.p99_us / 2,
                    "admitted p99 must be far below the ungated p99 at the same offered load");
  // Shedding one tenant's excess must not cost the others their SLO.
  FRACTOS_CHECK_MSG(gated_run.tenants[0].drop_rate == 0 && gated_run.tenants[2].drop_rate == 0,
                    "ungated tenants must be untouched by the storage gate");
}

}  // namespace
}  // namespace fractos

int main() {
  using namespace fractos;
  const auto run_start = std::chrono::steady_clock::now();
  std::printf("Open-loop three-tenant sweep on a shared 12-node fat tree (2 spines)\n");
  std::printf("(facever Poisson, storage on/off bursts, inference diurnal; %.0f ms horizon)\n",
              kHorizon.to_seconds() * 1e3);

  std::vector<Point> points;
  for (const double load : {0.25, 0.5, 0.75, 1.0, 1.25, 1.5}) {
    Point pt;
    pt.load = load;
    const bool trace = load == 1.5;  // highest-load FractOS run is the interesting trace
    pt.fractos = run_openloop<true>(load, /*storage_admission=*/0, trace);
    pt.baseline = run_openloop<false>(load, /*storage_admission=*/0, /*observed=*/false);
    points.push_back(std::move(pt));
    std::printf("  load %.2f done\n", load);
  }

  print_points(points);
  check_knee(points);

  // The overload-control point: FractOS at the top load factor, with the storage tenant's
  // offered rate boosted past the SSD's service capacity (the shared-fabric sweep above
  // knees in the GPU tenants; this point overloads the gated path itself). Run it twice —
  // ungated (queueing collapse) and with the storage client's Controller admitting at most
  // kAdmissionLimit in-flight invokes (fail-fast sheds, bounded admitted tail).
  constexpr uint32_t kAdmissionLimit = 24;
  constexpr double kControlBoost = 6.0;
  const RunPoint control_ungated = run_openloop<true>(
      points.back().load, /*storage_admission=*/0, /*observed=*/false, kControlBoost);
  const RunPoint control_gated = run_openloop<true>(
      points.back().load, kAdmissionLimit, /*observed=*/false, kControlBoost);
  check_overload_control(control_ungated, control_gated);

  write_json(points, points.back().load, kControlBoost, kAdmissionLimit, control_ungated,
             control_gated, bench::host_json(run_start));
  return 0;
}
