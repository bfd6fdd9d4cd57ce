// Controller compute-cost model, calibrated against the paper's microbenchmarks.
//
// Every FractOS operation charges compute time on the Controller's ExecContext (a polling
// core). Host-CPU and SmartNIC cost tables are calibrated separately because the paper
// measures them separately — the BlueField's 800 MHz ARM cores are 3-7x slower, dominated by
// "atomic shared_ptr operations related to capability and object lookups" (Section 6.1).
//
// Calibration (all values derived from the paper's own numbers):
//   * null_op:          Table 3. FractOS@CPU 3.00us vs raw loopback 2.42us -> 0.58us;
//                       FractOS@sNIC 4.50us vs raw 3.68us -> 0.82us.
//   * request_traversal: Fig. 6. "the CPU deployment adds 1.41 usec for Request handling both
//                       ways" -> 0.705us per Controller traversal; sNIC "5.11" -> 2.555us.
//   * net_serialize/net_deserialize: Fig. 6. "(de)serializing Requests across the network
//                       adds additional 4.41 usec" per RPC round trip; a round trip crosses
//                       the network twice and each crossing pays serialize at the sender and
//                       deserialize at the receiver -> 4.41/4 = 1.10us each (sNIC: 12.21/4 =
//                       3.05us).
//   * cap_serialize/cap_deserialize: Fig. 7. "(de)serializing a single capability during
//                       delegation takes about 2.4 usec and 3.8 usec for the CPU and sNIC
//                       deployments" -> half at each side.
//   * memcopy_setup:    Fig. 5. 1-byte memory_copy takes 12.7us (CPU) / 24.5us (sNIC); after
//                       subtracting two 3.3us RDMA round trips and the 2.42/3.68us syscall
//                       channel round trip, 3.68us / 14.22us of orchestration remain.
//   * bounce_per_byte:  staging through Controller bounce buffers; ~20 GB/s memcpy.

#ifndef SRC_CORE_COSTS_H_
#define SRC_CORE_COSTS_H_

#include "src/sim/time.h"

namespace fractos {

// Where the far-memory tier resolves remote virtual addresses to fabric locations (the MIND
// placement axis, DESIGN.md §4k): on the owning node's CPU (a round trip to a host core), on
// the owning node's SmartNIC (round trip to a slower ARM core, but no host involvement), or
// inside the ToR switch itself (no round trip past the rack fabric — the match-action table
// answers in-network at pipeline latency).
enum class XlatePlacement : uint8_t {
  kOwnerCpu = 0,
  kSnic = 1,
  kTor = 2,
};

inline const char* xlate_placement_name(XlatePlacement p) {
  switch (p) {
    case XlatePlacement::kOwnerCpu:
      return "owner-cpu";
    case XlatePlacement::kSnic:
      return "snic";
    case XlatePlacement::kTor:
      return "tor";
  }
  return "?";
}

struct ControllerCosts {
  // Handling a null syscall (validation + reply).
  Duration null_op = Duration::micros(0.58);
  // Generic syscall handling: creates, diminish, revoke, monitor registration.
  Duration syscall_base = Duration::micros(0.30);
  // Charged whenever a Controller processes a Request invocation hop (validation, object
  // lookup, argument-chain merge).
  Duration request_traversal = Duration::micros(0.705);
  // Extra cost to serialize / deserialize a Request that crosses to another Controller.
  Duration net_serialize = Duration::micros(1.10);
  Duration net_deserialize = Duration::micros(1.10);
  // Per capability argument crossing a Controller boundary (delegation).
  Duration cap_serialize = Duration::micros(1.20);
  Duration cap_deserialize = Duration::micros(1.20);
  // Fraction of cap_serialize a delegation pays when its serialized Request is already
  // cached (ControllerPolicy::cache_serialized_requests, Section 6.1's suggestion).
  static constexpr double kSerializedCacheDiscount = 0.25;
  // Installing one capability into a Process's capability space.
  Duration cap_install = Duration::micros(0.15);
  // Fixed orchestration cost of a memory_copy (bounce-buffer management, two RDMA setups).
  Duration memcopy_setup = Duration::micros(3.68);
  // Per byte staged through the Controller's bounce buffers (charged once per copied byte).
  Duration bounce_per_byte = Duration::nanos(0);  // folded into link occupancy by default

  static ControllerCosts host() { return ControllerCosts{}; }

  static ControllerCosts snic() {
    ControllerCosts c;
    c.null_op = Duration::micros(0.82);
    c.syscall_base = Duration::micros(1.00);
    c.request_traversal = Duration::micros(2.555);
    c.net_serialize = Duration::micros(3.05);
    c.net_deserialize = Duration::micros(3.05);
    c.cap_serialize = Duration::micros(1.90);
    c.cap_deserialize = Duration::micros(1.90);
    c.cap_install = Duration::micros(0.50);
    c.memcopy_setup = Duration::micros(14.22);
    return c;
  }
};

}  // namespace fractos

#endif  // SRC_CORE_COSTS_H_
