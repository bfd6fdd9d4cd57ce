// Fig. 12: end-to-end latency of a face-verification request vs image batch size, for
// FractOS with per-node CPU Controllers, sNIC Controllers, a single shared Controller
// ("Shared HAL"), and the NFS + NVMe-oF + rCUDA baseline.
//
// Paper shape: FractOS reduces the data path to a single transfer (NVMe -> GPU) vs three in
// the baseline (NVMe-oF, NFS, rCUDA), giving lower latency for both CPU and sNIC
// deployments; headline ~47% faster end to end.

#include "bench/bench_util.h"
#include "src/apps/face_verify.h"
#include "src/sim/metrics.h"
#include "src/sim/span.h"
#include "src/sim/tax_report.h"

namespace fractos {
namespace {

using bench::Table;
using bench::fmt;
using bench::fmt_us;

FaceVerifyParams params_for(uint32_t batch) {
  FaceVerifyParams p;
  p.image_bytes = 64 << 10;
  p.images_per_batch = batch;
  p.num_batches = 8;
  p.pool_slots = 4;
  p.per_image_compute = Duration::micros(120);
  return p;
}

enum class Deployment { kCpu, kSnic, kShared, kHwCopies };

double fractos_latency_us(Deployment d, uint32_t batch, int iters = 10) {
  SystemConfig cfg;
  cfg.hw_third_party_copies = d == Deployment::kHwCopies;
  System sys(cfg);
  auto cluster = FaceVerifyCluster::build(&sys);
  Controller* shared = nullptr;
  Loc loc = Loc::kHost;
  if (d == Deployment::kShared) {
    shared = &sys.add_controller(cluster.fs_node, Loc::kHost);
  } else if (d == Deployment::kSnic) {
    loc = Loc::kSnic;
  }
  FaceVerifyFractos app(&sys, &cluster, loc, params_for(batch), shared);
  app.ingest_database();
  FRACTOS_CHECK(sys.await_ok(app.verify(0)));  // warm-up
  Summary s;
  for (int i = 0; i < iters; ++i) {
    const Time start = sys.loop().now();
    FRACTOS_CHECK(sys.await_ok(app.verify(static_cast<uint32_t>(1 + i % 7))));
    s.add(sys.loop().now() - start);
  }
  return s.mean();
}

double baseline_latency_us(uint32_t batch, int iters = 10) {
  System sys;
  auto cluster = FaceVerifyCluster::build(&sys);
  FaceVerifyBaseline app(&sys, &cluster, params_for(batch));
  app.ingest_database();
  FRACTOS_CHECK(sys.await_ok(app.verify(0)));  // warm-up
  Summary s;
  for (int i = 0; i < iters; ++i) {
    const Time start = sys.loop().now();
    FRACTOS_CHECK(sys.await_ok(app.verify(static_cast<uint32_t>(1 + i % 7))));
    s.add(sys.loop().now() - start);
  }
  return s.mean();
}

// Traced rerun of the CPU deployment: every request gets a root span, and the interval
// sweep attributes each nanosecond of it to a disaggregation-tax bucket. The per-bucket sum
// must equal the end-to-end latency for every request — asserted, not just printed.
void traced_tax_breakdown() {
  SpanTracer tracer;
  MetricsRegistry metrics;
  System sys;
  auto cluster = FaceVerifyCluster::build(&sys);
  FaceVerifyFractos app(&sys, &cluster, Loc::kHost, params_for(8));
  app.ingest_database();
  FRACTOS_CHECK(sys.await_ok(app.verify(0)));  // warm-up, untraced

  sys.loop().set_span_tracer(&tracer);
  sys.loop().set_metrics(&metrics);
  std::vector<std::pair<std::string, TaxBreakdown>> rows;
  TaxBreakdown total;
  for (int i = 0; i < 5; ++i) {
    const uint64_t root =
        tracer.start_trace("frontend", "verify-" + std::to_string(i), sys.loop().now());
    Future<Result<bool>> f = [&]() {
      SpanScope scope(tracer.context_of(root));
      return app.verify(static_cast<uint32_t>(1 + i % 7));
    }();
    FRACTOS_CHECK(sys.await_ok(std::move(f)));
    tracer.end(root, sys.loop().now());
    const TaxBreakdown b = fold_tax(tracer, root);
    FRACTOS_CHECK_MSG(b.sum_ns() == b.total_ns, "tax buckets must sum to end-to-end latency");
    rows.emplace_back("request " + std::to_string(i), b);
    total += b;
  }
  sys.loop().set_span_tracer(nullptr);
  sys.loop().set_metrics(nullptr);
  rows.emplace_back("TOTAL", total);
  std::printf("%s", tax_table(rows).c_str());

  bench::write_observability(&tracer, &metrics);
}

}  // namespace
}  // namespace fractos

int main() {
  using namespace fractos;
  std::printf("Fig. 12: end-to-end face-verification latency vs batch size (64 KiB images)\n");
  std::printf("(paper: FractOS lower latency in all deployments; data crosses once vs 3x)\n");

  Table t("Fig. 12 — end-to-end request latency",
          {"batch", "FractOS CPU", "FractOS sNIC", "Shared HAL", "FractOS + HW copies",
           "Baseline", "baseline/CPU"});
  for (const uint32_t batch : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const double cpu = fractos_latency_us(Deployment::kCpu, batch);
    const double snic = fractos_latency_us(Deployment::kSnic, batch);
    const double shared = fractos_latency_us(Deployment::kShared, batch);
    const double hw = fractos_latency_us(Deployment::kHwCopies, batch);
    const double base = baseline_latency_us(batch);
    t.row({std::to_string(batch), fmt_us(cpu), fmt_us(snic), fmt_us(shared), fmt_us(hw),
           fmt_us(base), fmt(base / cpu, 2) + "x"});
  }
  t.print();
  std::printf("\n'HW copies' projects the Section 7 future-hardware discussion: third-party\n"
              "RDMA in the NIC replacing the Controller bounce buffers.\n");

  std::printf("\nDisaggregation-tax breakdown (CPU Controllers, batch 8, traced requests):\n");
  traced_tax_breakdown();
  return 0;
}
