// Deterministic fault injection for the simulated fabric.
//
// The paper's failure story (Section 3.6) — failure translation, stale-capability detection,
// monitor callbacks — is exercised by the failure tests against *clean* failures (a node is
// dead and stays dead). Real disaggregated fabrics also exhibit partial failure: lost and
// duplicated messages, latency spikes, transient partitions, nodes that go dark and come
// back. The FaultInjector models exactly that class of faults at the Network layer:
//
//   * per-link / per-traffic-category message drop, duplication, and extra delay jitter;
//   * link flaps: a (a,b) link is fully blocked for a scheduled interval;
//   * node outages: a node is unreachable (crash) for an interval, then reachable again
//     (restart) — the fabric-level view of a crash/restart cycle;
//   * RDMA RC retransmission: a "dropped" RDMA leg is retried by the (modeled) NIC after a
//     retry timeout with exponential backoff; exhausting the retry budget completes the verb
//     with kTimeout, matching RoCE RC retry_cnt semantics.
//
// Every decision is drawn from one Rng seeded by FaultPlan::seed, and the event loop is
// deterministic, so a seed fully determines the fault schedule: running the same workload
// twice with the same plan yields bit-identical simulated time, traffic counters, and
// injected-fault counters. Injected faults are counted as a first-class output
// (FaultCounters) so tests and the chaos harness can assert on them.
//
// When no injector is installed, the fabric takes the exact pre-existing code paths: no rng
// draws, no extra events, no behavior change — recorded bench numbers stay bit-identical.

#ifndef SRC_FABRIC_FAULT_INJECTOR_H_
#define SRC_FABRIC_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace fractos {

enum class Traffic : uint8_t;  // fabric/network.h

// Everything the injector may do to a run. Probabilities are per message, indexed by
// Traffic category (0 = control, 1 = data). Schedules use absolute simulated Times.
struct FaultPlan {
  uint64_t seed = 1;

  double drop_prob[2] = {0.0, 0.0};
  double dup_prob[2] = {0.0, 0.0};
  double jitter_prob[2] = {0.0, 0.0};
  Duration max_jitter = Duration::micros(25);

  // Per-link overrides win over the global drop probabilities. Links are unordered pairs.
  // Endpoints may be node ids or topology switch ids (Topology::tor_id / spine_id): a flap
  // on {tor_id(r), spine_id(s)} partitions exactly that uplink, and every message or RDMA
  // verb routed across it is dropped for the window.
  struct LinkOverride {
    uint32_t a = 0;
    uint32_t b = 0;
    double drop_prob[2] = {0.0, 0.0};
  };
  std::vector<LinkOverride> link_overrides;

  // Transient partition of one link: every message between a and b in [start, end) is
  // dropped, in both directions.
  struct LinkFlap {
    uint32_t a = 0;
    uint32_t b = 0;
    Time start;
    Time end;
  };
  std::vector<LinkFlap> flaps;

  // Scheduled crash/restart at the fabric level: the node is unreachable in [start, end).
  // Its host keeps executing (unlike Node::fail()) — this is what produces monitor
  // false-positives: heartbeats are lost while the node is actually alive.
  struct NodeOutage {
    uint32_t node = 0;
    Time start;
    Time end;
  };
  std::vector<NodeOutage> outages;

  // RDMA RC retransmission model (applies to rdma_read/rdma_write/rdma_third_party).
  Duration rdma_retry_timeout = Duration::micros(20);
  uint32_t rdma_retry_budget = 8;

  // True when the plan can reorder, lose, or duplicate messages — the condition under which
  // QueuePairs switch on their RC reliability machinery (seq/ACK/retransmit).
  bool perturbs_delivery() const {
    for (int c = 0; c < 2; ++c) {
      if (drop_prob[c] > 0 || dup_prob[c] > 0 || jitter_prob[c] > 0) {
        return true;
      }
    }
    return !link_overrides.empty() || !flaps.empty() || !outages.empty();
  }
};

// Injected-fault counters: a first-class output of every faulted run.
struct FaultCounters {
  uint64_t dropped[2] = {0, 0};      // random per-message drops, by category
  uint64_t duplicated[2] = {0, 0};
  uint64_t delayed[2] = {0, 0};
  uint64_t partition_drops = 0;      // flap- or outage-induced drops (deterministic)
  uint64_t rdma_retransmits = 0;     // modeled NIC retries of RDMA legs
  uint64_t rdma_aborts = 0;          // RDMA verbs failed with kTimeout (budget exhausted)

  uint64_t total_injected() const {
    return dropped[0] + dropped[1] + duplicated[0] + duplicated[1] + delayed[0] + delayed[1] +
           partition_drops + rdma_retransmits + rdma_aborts;
  }
  bool operator==(const FaultCounters&) const = default;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)), rng_(plan_.seed) {}

  // What happens to one message send. Draws are made in a fixed order (drop, then dup, then
  // jitter) so the schedule is a pure function of the seed and the call sequence.
  struct Verdict {
    bool drop = false;
    bool duplicate = false;
    Duration extra_delay = Duration::zero();
  };
  Verdict on_message(uint32_t src_node, uint32_t dst_node, Traffic category, Time now);

  // What happens to one RDMA verb between two nodes: zero or more modeled NIC retransmits
  // (delay accumulates with exponential backoff), or an abort once the budget is exhausted.
  // `path_blocked` reports a blocked topology link along the routed path (a spine or ToR
  // flap the direct (a, b) check cannot see); it defeats every retransmit, like a flap.
  struct RdmaVerdict {
    uint32_t retries = 0;
    bool abort = false;
    Duration delay = Duration::zero();
  };
  RdmaVerdict on_rdma(uint32_t a, uint32_t b, Time now, bool path_blocked = false);

  // Records a deterministic drop of a message whose route crossed a blocked topology link
  // (the Network detects those per hop; the flat (a, b) check in on_message cannot).
  void note_partition_drop() { ++counters_.partition_drops; }

  // True when the (a,b) link is blocked by a flap or either node is in an outage window.
  bool link_blocked(uint32_t a, uint32_t b, Time now) const;
  bool node_dark(uint32_t node, Time now) const;

  const FaultPlan& plan() const { return plan_; }
  const FaultCounters& counters() const { return counters_; }

 private:
  double drop_prob_for(uint32_t a, uint32_t b, size_t cat) const;

  FaultPlan plan_;
  Rng rng_;
  FaultCounters counters_;
};

}  // namespace fractos

#endif  // SRC_FABRIC_FAULT_INJECTOR_H_
