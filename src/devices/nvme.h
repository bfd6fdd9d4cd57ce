// Simulated NVMe SSD (the Samsung 970evo Plus stand-in).
//
// Timing model calibrated to the paper's storage evaluation: ~70 us random 4 KiB read
// ("NVMe latency dominates (70 usec)", Section 6.4), writes absorbed quickly by the device's
// DRAM write cache, and internal parallelism via a small number of channels so queued I/O
// overlaps. Data is real: a sparse block store backs reads and writes, so storage-stack tests
// can verify content end to end.

#ifndef SRC_DEVICES_NVME_H_
#define SRC_DEVICES_NVME_H_

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/sim/event_loop.h"
#include "src/sim/metrics.h"
#include "src/wire/payload.h"

namespace fractos {

class SimNvme {
 public:
  struct Params {
    uint64_t capacity_bytes = 16ull << 30;
    uint64_t block_bytes = 4096;
    // Random 4 KiB read service time (flash array read + FTL).
    Duration read_latency = Duration::micros(68.0);
    // Write service time into the DRAM-backed write cache.
    Duration write_latency = Duration::micros(12.0);
    // Internal streaming bandwidth once a transfer is in flight.
    double read_bw_bpns = 3.0;   // ~3 GB/s
    double write_bw_bpns = 2.5;  // ~2.5 GB/s
    // Internal parallelism: concurrent flash channels.
    uint32_t channels = 4;
  };

  explicit SimNvme(EventLoop* loop) : SimNvme(loop, Params{}) {}
  SimNvme(EventLoop* loop, Params params);

  const Params& params() const { return params_; }
  uint64_t capacity() const { return params_.capacity_bytes; }

  // Reads `size` bytes at byte offset `off`; `done` gets the data after the modeled service
  // time. Out-of-range access fails immediately. The result is a refcounted Payload: the
  // block-store copy happens once, here, and the handle rides the completion for free.
  void read(uint64_t off, uint64_t size, std::function<void(Result<Payload>)> done);

  // Writes `data` at byte offset `off`.
  void write(uint64_t off, Payload data, std::function<void(Status)> done);

  // Deallocates [off, off + size) at once (NVMe Dataset Management): it reads as zeros.
  void discard(uint64_t off, uint64_t size);

  // Direct (zero-time) access for test setup / verification.
  std::vector<uint8_t> peek(uint64_t off, uint64_t size) const;
  void poke(uint64_t off, const std::vector<uint8_t>& data);

  uint64_t reads_completed() const { return reads_; }
  uint64_t writes_completed() const { return writes_; }

 private:
  // Picks the earliest-free channel and occupies it for `service`; returns completion time
  // and reports when service actually began (for queue-wait attribution).
  Time schedule_on_channel(Duration service, Time* start_out);
  Status check_range(uint64_t off, uint64_t size) const;

  // Sparse block store.
  std::vector<uint8_t>& block_for(uint64_t block_idx);
  // Writes bytes [off, off + size) to `out`, each once; never-written blocks read as zeros.
  void read_bytes(uint64_t off, uint64_t size, uint8_t* out) const;
  void write_bytes(uint64_t off, std::span<const uint8_t> data);

  EventLoop* loop_;
  Params params_;
  std::vector<Time> channel_free_;
  std::unordered_map<uint64_t, std::vector<uint8_t>> blocks_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  MetricsPublisher publisher_;  // nvme.reads / nvme.writes; last, so it goes first
};

}  // namespace fractos

#endif  // SRC_DEVICES_NVME_H_
