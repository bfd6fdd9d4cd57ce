// A modeled Ethernet switch: per-port egress queues with serialization delay, PFC-bounded
// queue occupancy, and ECN-style congestion accounting.
//
// The model is store-and-forward at message granularity: a message reaching a switch at
// time t waits for the egress port to drain everything ahead of it (head-of-line wait),
// then occupies the port for its serialization time. Two congestion signals are counted
// but deliberately do not lose traffic on a clean fabric:
//
//   * ECN marks — the egress queue occupancy at admission crossed `ecn_threshold_bytes`
//     (what a RoCEv2 switch would CE-mark and DCQCN would react to);
//   * pause events — the occupancy would have exceeded `port_buffer_bytes`, so the frame is
//     held upstream (PFC backpressure) until the queue has room. The wait is identical, but
//     the recorded occupancy stays bounded by the buffer — lossless fabrics push queues
//     upstream, they do not drop.
//
// All state advances monotonically per port, so delivery order per (src, dst) pair is
// preserved and same-seed runs are bit-identical.

#ifndef SRC_FABRIC_SWITCH_H_
#define SRC_FABRIC_SWITCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fabric/params.h"
#include "src/sim/time.h"

namespace fractos {

// Calibration of one switch (shared by every switch of a topology).
struct SwitchParams {
  // Per-port line rate. Matches the fabric's 10 Gbps wire (src/fabric/params.h).
  double port_bandwidth_bpns = 1.25;

  // Egress buffer per port: the PFC bound on queue occupancy. Shallow-buffer ToR class.
  uint64_t port_buffer_bytes = 128 << 10;

  // ECN marking threshold (DCQCN-style K), well below the buffer so marks precede pauses.
  uint64_t ecn_threshold_bytes = 32 << 10;

  // One-way propagation + switch pipeline latency per link traversed.
  Duration link_oneway = Duration::nanos(550);

  // Per-link bandwidth partition between the two traffic classes of the far-memory tier
  // (DaeMon-style dual-granularity movement, DESIGN.md §4k): the hot lane gets this share of
  // the port bandwidth for cacheline-sized demand fetches, the bulk lane the remainder for
  // page-sized prefetch and everything else. 0 (the default) keeps the single shared egress
  // clock — bit-identical to every recorded bench number — and the lane argument of
  // traverse() is ignored.
  double hot_lane_share = 0.0;
};

// First-class congestion record of one egress port.
struct PortStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;             // wire bytes serialized (payload + headers)
  uint64_t ecn_marks = 0;         // admissions with occupancy >= ecn_threshold_bytes
  uint64_t pause_events = 0;      // admissions held upstream by PFC backpressure
  uint64_t max_queue_bytes = 0;   // peak bounded occupancy observed at admission
  int64_t queue_wait_ns = 0;      // total head-of-line wait charged at this port
  // Hot-lane slice of the totals above (only moves when hot_lane_share > 0).
  uint64_t hot_messages = 0;
  uint64_t hot_bytes = 0;
};

class Switch {
 public:
  Switch(uint32_t id, std::string name, SwitchParams params)
      : id_(id), name_(std::move(name)), params_(params) {}

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const SwitchParams& params() const { return params_; }

  // One message crossing egress port `port` at time `enq` (arrival at the switch).
  // `hot_lane` selects the bandwidth partition when hot_lane_share > 0 (ignored otherwise):
  // each lane owns its own egress clock, so a page-sized prefetch queued on the bulk lane
  // never heads-of-line a cacheline demand fetch on the hot lane.
  struct Transit {
    Time depart;                    // serialization onto the egress link completes
    Duration queued;                // head-of-line wait (including any upstream pause)
    bool ecn_marked = false;
  };
  Transit traverse(uint32_t port, Time enq, uint64_t wire_bytes, bool hot_lane = false);

  size_t num_ports() const { return ports_.size(); }
  const PortStats& port_stats(uint32_t port) const;

  // Aggregates over every port of this switch.
  uint64_t max_queue_bytes() const;
  uint64_t total_ecn_marks() const;
  uint64_t total_pause_events() const;

 private:
  struct Port {
    Time free_at;      // shared clock (hot_lane_share == 0) or the bulk lane's clock
    Time hot_free_at;  // hot lane's clock; untouched while hot_lane_share == 0
    PortStats stats;
  };
  Port& ensure_port(uint32_t port);

  uint32_t id_;
  std::string name_;
  SwitchParams params_;
  std::vector<Port> ports_;
};

}  // namespace fractos

#endif  // SRC_FABRIC_SWITCH_H_
