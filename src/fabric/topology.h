// The fabric topology: which switches sit between two endpoints and which egress ports a
// message crosses.
//
// Two shapes:
//
//   * kSingleSwitch (the default) — every node hangs off one implicit switch. This is the
//     calibrated pre-topology model: the Network keeps its original flat send path (one
//     cross-node latency, NIC egress/ingress occupancy, no per-hop queues), so every
//     recorded bench number reproduces bit-identically.
//   * kFatTree — a two-tier ToR/spine fat tree. Nodes are assigned to racks by id
//     (rack = node / nodes_per_rack), each rack gets a ToR switch, and `num_spines` spine
//     switches interconnect the ToRs. Cross-rack flows pick their spine by a deterministic
//     ECMP flow hash, so same-seed runs route — and therefore time — bit-identically, and
//     every (src, dst) endpoint pair keeps one path, preserving per-pair FIFO delivery.
//
// Switches are fault-addressable: ToR and spine ids live in a reserved id range disjoint
// from node ids, so a FaultPlan::LinkFlap{tor_id(r), spine_id(s)} partitions exactly that
// uplink (Network checks every link of a route against the injector).

#ifndef SRC_FABRIC_TOPOLOGY_H_
#define SRC_FABRIC_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fabric/node.h"
#include "src/fabric/switch.h"

namespace fractos {

struct TopologySpec {
  enum class Kind : uint8_t {
    kSingleSwitch = 0,
    kFatTree = 1,
  };
  Kind kind = Kind::kSingleSwitch;

  // Fat-tree shape (ignored for kSingleSwitch).
  uint32_t nodes_per_rack = 8;
  uint32_t num_spines = 2;
  SwitchParams sw;

  static TopologySpec single_switch() { return TopologySpec{}; }
  static TopologySpec fat_tree(uint32_t nodes_per_rack, uint32_t num_spines,
                               SwitchParams sw = {}) {
    TopologySpec s;
    s.kind = Kind::kFatTree;
    s.nodes_per_rack = nodes_per_rack;
    s.num_spines = num_spines;
    s.sw = sw;
    return s;
  }

  // Shape validation; std::nullopt when valid. With num_nodes > 0 also rejects a node count
  // that does not fill racks evenly — a ragged last rack silently skews rack-local vs
  // cross-rack traffic ratios and is almost always a sweep-configuration bug.
  // SystemConfig::validate() calls this.
  std::optional<std::string> validate(uint32_t num_nodes = 0) const;
};

class Topology {
 public:
  // Switch ids live far above any node id so FaultPlan links can name them unambiguously.
  static constexpr uint32_t kTorIdBase = 0x80000000u;
  static constexpr uint32_t kSpineIdBase = 0xc0000000u;
  static constexpr uint32_t tor_id(uint32_t rack) { return kTorIdBase + rack; }
  static constexpr uint32_t spine_id(uint32_t i) { return kSpineIdBase + i; }

  // Deterministic ECMP flow hash. Endpoint loc stands in for the queue-pair discriminator:
  // host and sNIC flows between the same nodes may take different spines, everything else
  // is a pure function of the pair — no rng, no per-run state.
  static uint64_t flow_hash(Endpoint src, Endpoint dst);

  explicit Topology(TopologySpec spec);

  const TopologySpec& spec() const { return spec_; }
  bool flat() const { return spec_.kind == TopologySpec::Kind::kSingleSwitch; }

  // Grows racks/ToRs to cover `node` (called by Network::add_node).
  void on_node_added(uint32_t node);

  uint32_t rack_of(uint32_t node) const {
    return flat() ? 0 : node / spec_.nodes_per_rack;
  }
  bool same_rack(uint32_t a, uint32_t b) const { return rack_of(a) == rack_of(b); }
  uint32_t num_racks() const { return static_cast<uint32_t>(tors_.size()); }
  uint32_t num_spines() const { return static_cast<uint32_t>(spines_.size()); }

  Switch& tor(uint32_t rack);
  Switch& spine(uint32_t i);
  const Switch& tor(uint32_t rack) const;
  const Switch& spine(uint32_t i) const;

  // The spine index a cross-rack (src, dst) flow hashes to.
  uint32_t spine_for(Endpoint src, Endpoint dst) const;

  // One link of a route. The first hop (node NIC onto its ToR link) has sw == nullptr: its
  // serialization is charged at the sender NIC by the Network, not at a switch port. Every
  // hop carries the fault-addressable (link_a, link_b) endpoints of the link it serializes
  // onto.
  struct Hop {
    Switch* sw = nullptr;
    uint32_t port = 0;
    uint32_t link_a = 0;
    uint32_t link_b = 0;
  };

  // Appends the hops of the src -> dst route to `out` (cleared first). Empty for flat
  // topologies and same-node traffic.
  void route(Endpoint src, Endpoint dst, std::vector<Hop>* out);

  // Number of links a cross-node message traverses (2 intra-rack, 4 cross-rack); 0 when
  // flat. Used for propagation-latency accounting.
  uint32_t num_links(Endpoint src, Endpoint dst) const;

  // Congestion aggregates over every switch of the topology.
  uint64_t max_port_queue_bytes() const;
  uint64_t total_ecn_marks() const;
  uint64_t total_pause_events() const;

 private:
  TopologySpec spec_;
  std::vector<std::unique_ptr<Switch>> tors_;
  std::vector<std::unique_ptr<Switch>> spines_;
};

}  // namespace fractos

#endif  // SRC_FABRIC_TOPOLOGY_H_
