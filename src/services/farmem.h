// Client-side far-memory runtime: a small local cache over one attached far-memory segment
// (src/services/mempool.h), faulting on access with DUAL-GRANULARITY data movement
// (DESIGN.md §4k, after DaeMon):
//
//   * hot path  — a miss demand-fetches one 64 B cacheline with a one-sided RDMA read on the
//     fabric's HOT lane (LinkClass::kHot): tiny transfers that must not queue behind pages;
//   * bulk path — sequential streaks (streak_threshold consecutive cachelines) trigger an
//     asynchronous 4 KiB page prefetch on the BULK lane; later accesses that land on an
//     in-flight page wait for it instead of issuing their own fetch.
//
// With `dual_granularity = false` the client degrades to the page-only baseline every
// fault moves a full page, synchronously, on the bulk lane — the comparison axis of
// bench_memtier.
//
// Address translation (the MIND placement axis): every fetch first resolves the segment
// offset to a fabric location. `placement` picks where that happens and what it costs:
//   * kOwnerCpu — control round trip to the owning node's host CPU (request_traversal cost);
//   * kSnic    — round trip to the owning node's SmartNIC ARM core (slower per-op compute,
//     but the host is never involved);
//   * kTor     — the ToR switch answers in-network at match-action pipeline latency; no
//     round trip past the rack fabric.
//
// Every fault is wrapped in a SpanKind::kFarMem span (bucket "farmem" in the tax report);
// translation work lands in kTranslation, and the RDMA legs contribute their usual fabric /
// fabric.queue spans as children. Prefetch issue is DETACHED from the faulting trace (an
// empty SpanScope): the bytes move in the background; only the time a later access spends
// *waiting* on an in-flight page is attributed (a "prefetch-wait" kFarMem span).
//
// Cache state is write-through, so eviction (FIFO, per granularity) never writes back.

#ifndef SRC_SERVICES_FARMEM_H_
#define SRC_SERVICES_FARMEM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/core/costs.h"
#include "src/core/system.h"

namespace fractos {

class FarMemClient {
 public:
  struct Config {
    uint64_t line_bytes = 64;
    uint64_t page_bytes = 4096;
    uint32_t line_slots = 256;  // local cacheline cache (dual mode)
    uint32_t page_slots = 8;    // local page cache
    // Consecutive-line streak that arms the next-page prefetch (dual mode).
    uint32_t streak_threshold = 4;
    bool dual_granularity = true;
    XlatePlacement placement = XlatePlacement::kOwnerCpu;
    // Per-fetch translation compute. CPU/sNIC match the Controller request-traversal
    // calibration (src/core/costs.h); the ToR figure models a match-action pipeline lookup.
    Duration cpu_xlate = Duration::micros(0.705);
    Duration snic_xlate = Duration::micros(2.555);
    Duration tor_xlate = Duration::nanos(300);
  };

  struct Stats {
    uint64_t accesses = 0;
    uint64_t line_hits = 0;
    uint64_t page_hits = 0;
    uint64_t demand_fetches = 0;   // synchronous line (dual) or page (baseline) faults
    uint64_t prefetches = 0;       // asynchronous page prefetches issued
    uint64_t prefetch_waits = 0;   // accesses that waited on an in-flight page
    uint64_t hot_bytes = 0;        // payload bytes moved on the hot lane
    uint64_t bulk_bytes = 0;       // payload bytes moved on the bulk lane
    uint64_t write_throughs = 0;
  };

  // `segment` must be a Memory capability in `client`'s space (MemPoolClient::attach);
  // `client_ctrl` is the Controller managing `client`, used once to resolve the capability
  // into an rkey + fabric location — the data path never touches a Controller again.
  FarMemClient(System* sys, Process& client, Controller& client_ctrl, CapId segment,
               Config cfg);

  // Reads [offset, offset+size) — the range must lie within one cacheline (the CPU-visible
  // access granularity this client models), or the read fails with kOutOfRange. Completes
  // asynchronously, cache hits and refusals included, so caller-side ordering never depends
  // on hit/miss.
  void read(uint64_t offset, uint64_t size,
            std::function<void(Result<std::vector<uint8_t>>)> done);

  // Write-through: updates any cached copies, then RDMA-writes the remote segment. The range
  // must lie within one cacheline, or the write fails with kOutOfRange (asynchronously).
  void write(uint64_t offset, std::vector<uint8_t> bytes, std::function<void(Status)> done);

  const Stats& stats() const { return stats_; }
  const Config& config() const { return cfg_; }
  uint64_t segment_size() const { return seg_size_; }
  size_t cached_lines() const { return lines_.size(); }
  size_t cached_pages() const { return pages_.size(); }

 private:
  void fetch_line(uint64_t line, uint64_t offset, uint64_t size,
                  std::function<void(Result<std::vector<uint8_t>>)> done);
  void fetch_page(uint64_t page, uint64_t offset, uint64_t size,
                  std::function<void(Result<std::vector<uint8_t>>)> done);
  void maybe_prefetch(uint64_t page);
  void install_line(uint64_t line, std::vector<uint8_t> bytes);
  void install_page(uint64_t page, std::vector<uint8_t> bytes);

  // Runs the placement-dependent translation step, then `issue` (under the caller's ambient
  // span context, so the fetch's RDMA legs nest correctly).
  void translate_then(std::function<void()> issue);

  // Serves `done` with bytes copied out of `buf` (whose base segment offset is `base`).
  void complete_from(const std::vector<uint8_t>& buf, uint64_t base, uint64_t offset,
                     uint64_t size, std::function<void(Result<std::vector<uint8_t>>)>& done);

  // True when [offset, offset + size) is not empty, in the segment and in one cacheline.
  bool in_one_line(uint64_t offset, uint64_t size) const;
  void note_access(uint64_t line);

  System* sys_;
  Process* client_;
  Config cfg_;
  Endpoint client_ep_;
  // Resolved once from the segment capability: where the bytes live and the rkey that
  // authorizes one-sided access to them.
  RdmaKey rkey_;
  uint32_t mem_node_ = 0;
  PoolId mem_pool_ = 0;
  uint64_t mem_addr_ = 0;  // segment base within the remote pool
  uint64_t seg_size_ = 0;

  // Caches keyed by line/page base offset; FIFO eviction via the deques (deterministic —
  // the unordered_maps are lookup-only).
  std::unordered_map<uint64_t, std::vector<uint8_t>> lines_;
  std::deque<uint64_t> line_fifo_;
  std::unordered_map<uint64_t, std::vector<uint8_t>> pages_;
  std::deque<uint64_t> page_fifo_;
  // In-flight page fetches (prefetch or baseline fault): arrival runs the waiters in order.
  std::unordered_map<uint64_t, std::vector<std::function<void()>>> pending_pages_;

  // Sequential-streak detector.
  uint64_t last_line_ = ~0ULL;
  uint32_t streak_ = 0;

  Stats stats_;
};

}  // namespace fractos

#endif  // SRC_SERVICES_FARMEM_H_
