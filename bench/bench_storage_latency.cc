// Fig. 10: storage-stack latency — random reads (left) and random writes (right) vs I/O
// size, for: FractOS FS mode, FractOS DAX, the Disaggregated Baseline (FS over NVMe-oF with
// the Linux cache), and the Local Baseline.
//
// Paper shape: FS competitive with the Disaggregated Baseline for random reads (the Linux
// cache is ineffective there); random writes slower for FS (no cache) while the baseline
// absorbs them; DAX optimizes data transfers ~2x, from ~1.1x total speedup at 4 KiB (NVMe
// latency dominates, ~70 us) to ~1.3x at larger sizes.

#include <memory>

#include "bench/bench_util.h"
#include "src/baselines/baseline_fs.h"
#include "src/baselines/nvmeof.h"
#include "src/baselines/page_cache.h"
#include "src/services/fs.h"
#include "src/sim/metrics.h"
#include "src/sim/rng.h"
#include "src/sim/span.h"
#include "src/sim/tax_report.h"

namespace fractos {
namespace {

using bench::Table;
using bench::fmt;
using bench::fmt_size;
using bench::fmt_us;

constexpr uint64_t kFileBytes = 64ull << 20;  // big enough that random access defeats caches

// FractOS storage stack (FS or DAX mode) on 3 nodes: client / fs / storage.
struct FractosStorage {
  System sys;
  std::unique_ptr<SimNvme> nvme;
  std::unique_ptr<BlockAdaptor> block;
  std::unique_ptr<FsService> fs;
  Process* client = nullptr;
  CapId create_ep = kInvalidCap, open_ep = kInvalidCap;
  FsClient::OpenFile file;
  uint64_t buf_addr = 0;
  CapId buf = kInvalidCap;
  Rng rng{42};

  FractosStorage(Loc ctrl_loc, bool dax, uint64_t max_io) {
    const uint32_t cn = sys.add_node("client");
    const uint32_t fn = sys.add_node("fs");
    const uint32_t sn = sys.add_node("storage");
    Controller& cc = sys.add_controller(cn, ctrl_loc);
    Controller& cf = sys.add_controller(fn, ctrl_loc);
    Controller& cs = sys.add_controller(sn, ctrl_loc);
    nvme = std::make_unique<SimNvme>(&sys.loop());
    BlockAdaptor::Params bp;
    bp.slot_bytes = std::max<uint64_t>(2 << 20, max_io);
    block = std::make_unique<BlockAdaptor>(&sys, sn, cs, nvme.get(), bp);
    FsService::Params fp;
    fp.slot_bytes = bp.slot_bytes;
    fs = FsService::bootstrap(&sys, fn, cf, block->process(), block->mgmt_endpoint(), fp);
    client = &sys.spawn("client", cn, cc, max_io + (2 << 20));
    create_ep = sys.bootstrap_grant(fs->process(), fs->create_endpoint(), *client).value();
    open_ep = sys.bootstrap_grant(fs->process(), fs->open_endpoint(), *client).value();
    FRACTOS_CHECK(sys.await(FsClient::create(*client, create_ep, "bench", kFileBytes)).ok());
    file = sys.await_ok(FsClient::open(*client, open_ep, "bench", /*rw=*/true, dax));
    buf_addr = client->alloc(max_io);
    buf = sys.await_ok(client->memory_create(buf_addr, max_io, Perms::kReadWrite));
  }

  uint64_t random_aligned_offset(uint64_t io) {
    // Stay within one extent for the I/O (the paper's random workload is block-aligned).
    const uint64_t extent = file.extent_bytes;
    const uint64_t n_extents = kFileBytes / extent;
    const uint64_t e = rng.next_below(n_extents);
    const uint64_t max_off = extent - io;
    return e * extent + (rng.next_below(max_off / 4096 + 1)) * 4096;
  }

  double io_latency_us(bool is_write, uint64_t io, int iters = 15) {
    // A view of exactly `io` bytes (services copy min-length; keep sizes exact).
    Summary s;
    for (int i = 0; i < iters; ++i) {
      const uint64_t off = random_aligned_offset(io);
      const Time start = sys.loop().now();
      Status st = is_write ? sys.await(FsClient::write(*client, file, off, io, buf))
                           : sys.await(FsClient::read(*client, file, off, io, buf));
      FRACTOS_CHECK(st.ok());
      s.add(sys.loop().now() - start);
    }
    return s.mean();
  }
};

// Baseline stacks: BaselineFs over (a) NVMe-oF + page cache (Disaggregated) or (b) a local
// NVMe (Local: everything co-located on one node).
struct BaselineStorage {
  System sys;
  std::unique_ptr<SimNvme> nvme;
  std::unique_ptr<NvmeofTarget> target;
  std::unique_ptr<NvmeofInitiator> initiator;
  std::unique_ptr<PageCache> cache;
  std::unique_ptr<LocalNvmeDevice> local_dev;
  std::unique_ptr<BaselineFs> fs;
  Process* client = nullptr;
  FsClient::OpenFile file;
  uint64_t buf_addr = 0;
  CapId buf = kInvalidCap;
  Rng rng{43};

  BaselineStorage(bool local, uint64_t max_io) {
    nvme = std::make_unique<SimNvme>(&sys.loop());
    uint32_t cn, fn;
    BlockDevice* dev;
    if (local) {
      // Local Baseline: client, FS, and NVMe all on one node.
      cn = fn = sys.add_node("local");
      local_dev = std::make_unique<LocalNvmeDevice>(nvme.get());
      cache = std::make_unique<PageCache>(&sys.loop(), local_dev.get());
      dev = cache.get();
    } else {
      cn = sys.add_node("client");
      fn = sys.add_node("fs");
      const uint32_t sn = sys.add_node("storage");
      target = std::make_unique<NvmeofTarget>(&sys.net(), sn, nvme.get());
      initiator = std::make_unique<NvmeofInitiator>(&sys.net(), fn, target.get());
      cache = std::make_unique<PageCache>(&sys.loop(), initiator.get());
      dev = cache.get();
    }
    Controller& cc = sys.add_controller(cn, Loc::kHost);
    Controller& cf = local ? cc : sys.add_controller(fn, Loc::kHost);
    BaselineFs::Params p;
    p.slot_bytes = std::max<uint64_t>(2 << 20, max_io);
    fs = std::make_unique<BaselineFs>(&sys, fn, cf, dev, p);
    client = &sys.spawn("client", cn, cc, max_io + (2 << 20));
    const CapId create_ep =
        sys.bootstrap_grant(fs->process(), fs->create_endpoint(), *client).value();
    const CapId open_ep =
        sys.bootstrap_grant(fs->process(), fs->open_endpoint(), *client).value();
    FRACTOS_CHECK(sys.await(FsClient::create(*client, create_ep, "bench", kFileBytes)).ok());
    file = sys.await_ok(FsClient::open(*client, open_ep, "bench", true, false));
    buf_addr = client->alloc(max_io);
    buf = sys.await_ok(client->memory_create(buf_addr, max_io, Perms::kReadWrite));
  }

  double io_latency_us(bool is_write, uint64_t io, int iters = 15) {
    Summary s;
    for (int i = 0; i < iters; ++i) {
      const uint64_t off = (rng.next_below((kFileBytes - io) / 4096 + 1)) * 4096;
      const Time start = sys.loop().now();
      Status st = is_write ? sys.await(FsClient::write(*client, file, off, io, buf))
                           : sys.await(FsClient::read(*client, file, off, io, buf));
      FRACTOS_CHECK(st.ok());
      s.add(sys.loop().now() - start);
    }
    return s.mean();
  }
};

// One traced random read: opens a root span around the whole client I/O, folds the trace
// into tax buckets, and asserts the buckets sum to the measured end-to-end latency.
TaxBreakdown traced_read_tax(FractosStorage& s, SpanTracer& tracer, uint64_t io) {
  const uint64_t off = s.random_aligned_offset(io);
  const uint64_t root = tracer.start_trace("client", "read", s.sys.loop().now());
  Future<Status> f = [&]() {
    SpanScope scope(tracer.context_of(root));
    return FsClient::read(*s.client, s.file, off, io, s.buf);
  }();
  FRACTOS_CHECK(s.sys.await(std::move(f)).ok());
  tracer.end(root, s.sys.loop().now());
  const TaxBreakdown b = fold_tax(tracer, root);
  FRACTOS_CHECK_MSG(b.sum_ns() == b.total_ns, "tax buckets must sum to end-to-end latency");
  return b;
}

}  // namespace
}  // namespace fractos

int main() {
  using namespace fractos;
  std::printf("Fig. 10: storage latency — random reads / writes vs I/O size\n");
  std::printf("(paper: DAX ~1.1x over FS at 4KiB reads, growing to ~1.3x at larger sizes;\n");
  std::printf(" baseline absorbs random writes in the Linux cache; FS has no cache)\n");

  const uint64_t sizes[] = {4096, 16384, 65536, 262144, 1048576};
  const uint64_t max_io = 1048576;

  for (const bool is_write : {false, true}) {
    Table t(std::string("Fig. 10 — random ") + (is_write ? "WRITE" : "READ") + " latency",
            {"I/O size", "FractOS FS", "FractOS DAX", "Disagg. Baseline", "Local Baseline",
             "FS/DAX"});
    for (const uint64_t io : sizes) {
      FractosStorage fs_mode(Loc::kHost, /*dax=*/false, max_io);
      const double fs_us = fs_mode.io_latency_us(is_write, io);
      FractosStorage dax_mode(Loc::kHost, /*dax=*/true, max_io);
      const double dax_us = dax_mode.io_latency_us(is_write, io);
      BaselineStorage disagg(/*local=*/false, max_io);
      const double disagg_us = disagg.io_latency_us(is_write, io);
      BaselineStorage local(/*local=*/true, max_io);
      const double local_us = local.io_latency_us(is_write, io);
      t.row({fmt_size(io), fmt_us(fs_us), fmt_us(dax_us), fmt_us(disagg_us), fmt_us(local_us),
             fmt(fs_us / dax_us, 2) + "x"});
    }
    t.print();
  }

  // Breakdown at 64 KiB, mirroring the paper's stacked bars: raw device time, the wire time
  // of the data legs (1 for DAX, 2 for FS), and the remaining software overhead.
  Table bd("Fig. 10 breakdown — 64 KiB random read (device / wire / software)",
           {"stack", "total", "device", "wire", "software"});
  {
    const uint64_t io = 65536;
    const double device_us = 68.0 + io / 3.0 / 1000.0;      // SimNvme read model
    const double wire_us = io / 1.25 / 1000.0;               // one 10 Gbps crossing
    FractosStorage fs_mode(Loc::kHost, false, max_io);
    const double fs_us = fs_mode.io_latency_us(false, io);
    FractosStorage dax_mode(Loc::kHost, true, max_io);
    const double dax_us = dax_mode.io_latency_us(false, io);
    bd.row({"FractOS FS", fmt_us(fs_us), fmt_us(device_us), fmt_us(2 * wire_us),
            fmt_us(fs_us - device_us - 2 * wire_us)});
    bd.row({"FractOS DAX", fmt_us(dax_us), fmt_us(device_us), fmt_us(wire_us),
            fmt_us(dax_us - device_us - wire_us)});
  }
  bd.print();

  // sNIC deployment of the FractOS stacks (paper: "system overheads grow" on sNICs).
  Table snic("Fig. 10 addendum — FractOS on sNIC Controllers, random reads",
             {"I/O size", "FS @ sNIC", "DAX @ sNIC"});
  for (const uint64_t io : {4096ull, 65536ull, 1048576ull}) {
    FractosStorage fs_mode(Loc::kSnic, false, max_io);
    FractosStorage dax_mode(Loc::kSnic, true, max_io);
    snic.row({fmt_size(io), fmt_us(fs_mode.io_latency_us(false, io)),
              fmt_us(dax_mode.io_latency_us(false, io))});
  }
  snic.print();

  // Measured (span-based) counterpart of the modeled breakdown above: attach a tracer and
  // attribute a traced 64 KiB random read, per stack, to disaggregation-tax buckets.
  {
    SpanTracer tracer;
    MetricsRegistry metrics;
    std::vector<std::pair<std::string, TaxBreakdown>> rows;
    const uint64_t io = 65536;

    FractosStorage fs_mode(Loc::kHost, false, max_io);
    fs_mode.sys.loop().set_span_tracer(&tracer);
    fs_mode.sys.loop().set_metrics(&metrics);
    rows.emplace_back("FractOS FS", traced_read_tax(fs_mode, tracer, io));
    fs_mode.sys.loop().set_span_tracer(nullptr);
    fs_mode.sys.loop().set_metrics(nullptr);

    FractosStorage dax_mode(Loc::kHost, true, max_io);
    dax_mode.sys.loop().set_span_tracer(&tracer);
    dax_mode.sys.loop().set_metrics(&metrics);
    rows.emplace_back("FractOS DAX", traced_read_tax(dax_mode, tracer, io));
    dax_mode.sys.loop().set_span_tracer(nullptr);
    dax_mode.sys.loop().set_metrics(nullptr);

    std::printf("\nMeasured tax breakdown — 64 KiB random read (traced spans):\n%s",
                tax_table(rows).c_str());
    bench::write_observability(&tracer, &metrics);
  }
  return 0;
}
