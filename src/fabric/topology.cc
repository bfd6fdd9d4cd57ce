#include "src/fabric/topology.h"

#include <string>

#include "src/base/assert.h"

namespace fractos {

std::optional<std::string> TopologySpec::validate(uint32_t num_nodes) const {
  if (kind == Kind::kSingleSwitch) {
    return std::nullopt;
  }
  if (nodes_per_rack == 0) {
    return "fat-tree topology needs nodes_per_rack >= 1";
  }
  if (num_spines == 0) {
    return "fat-tree topology needs num_spines >= 1 (no cross-rack path otherwise)";
  }
  if (num_nodes > 0 && num_nodes % nodes_per_rack != 0) {
    const uint32_t missing = nodes_per_rack - num_nodes % nodes_per_rack;
    return "fat-tree with " + std::to_string(num_nodes) +
           " node(s) does not divide into racks of " + std::to_string(nodes_per_rack) +
           ": the last rack would be silently under-filled, skewing rack-local vs "
           "cross-rack ratios; pick a nodes_per_rack that divides the node count, or add " +
           std::to_string(missing) + " node(s) to fill rack " +
           std::to_string(num_nodes / nodes_per_rack);
  }
  return std::nullopt;
}

Topology::Topology(TopologySpec spec) : spec_(spec) {
  if (!flat()) {
    FRACTOS_CHECK(spec_.nodes_per_rack > 0);
    FRACTOS_CHECK(spec_.num_spines > 0);
    spines_.reserve(spec_.num_spines);
    for (uint32_t i = 0; i < spec_.num_spines; ++i) {
      spines_.push_back(
          std::make_unique<Switch>(spine_id(i), "spine" + std::to_string(i), spec_.sw));
    }
  }
}

void Topology::on_node_added(uint32_t node) {
  if (flat()) {
    return;
  }
  const uint32_t rack = rack_of(node);
  while (tors_.size() <= rack) {
    const uint32_t r = static_cast<uint32_t>(tors_.size());
    tors_.push_back(std::make_unique<Switch>(tor_id(r), "tor" + std::to_string(r), spec_.sw));
  }
}

Switch& Topology::tor(uint32_t rack) {
  FRACTOS_CHECK(rack < tors_.size());
  return *tors_[rack];
}

Switch& Topology::spine(uint32_t i) {
  FRACTOS_CHECK(i < spines_.size());
  return *spines_[i];
}

const Switch& Topology::tor(uint32_t rack) const {
  FRACTOS_CHECK(rack < tors_.size());
  return *tors_[rack];
}

const Switch& Topology::spine(uint32_t i) const {
  FRACTOS_CHECK(i < spines_.size());
  return *spines_[i];
}

uint64_t Topology::flow_hash(Endpoint src, Endpoint dst) {
  // splitmix64 over the packed flow tuple: strong enough to spread adjacent node pairs
  // across spines, and a pure function so routing never perturbs seed determinism.
  uint64_t x = (static_cast<uint64_t>(src.node) << 33) ^ (static_cast<uint64_t>(dst.node) << 2) ^
               (static_cast<uint64_t>(src.loc) << 1) ^ static_cast<uint64_t>(dst.loc);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint32_t Topology::spine_for(Endpoint src, Endpoint dst) const {
  FRACTOS_CHECK(!spines_.empty());
  return static_cast<uint32_t>(flow_hash(src, dst) % spines_.size());
}

uint32_t Topology::num_links(Endpoint src, Endpoint dst) const {
  if (flat() || src.node == dst.node) {
    return 0;
  }
  return same_rack(src.node, dst.node) ? 2 : 4;
}

void Topology::route(Endpoint src, Endpoint dst, std::vector<Hop>* out) {
  out->clear();
  if (flat() || src.node == dst.node) {
    return;
  }
  const uint32_t src_rack = rack_of(src.node);
  const uint32_t dst_rack = rack_of(dst.node);
  FRACTOS_CHECK(src_rack < tors_.size() && dst_rack < tors_.size());
  const uint32_t dst_local = dst.node % spec_.nodes_per_rack;

  // Sender NIC onto its ToR link (serialized by the Network's per-node egress state).
  out->push_back(Hop{nullptr, 0, src.node, tor_id(src_rack)});

  if (src_rack == dst_rack) {
    out->push_back(Hop{tors_[src_rack].get(), dst_local, tor_id(src_rack), dst.node});
    return;
  }

  const uint32_t s = spine_for(src, dst);
  // ToR uplink ports sit above the member-node ports; spine port r faces rack r's ToR.
  out->push_back(
      Hop{tors_[src_rack].get(), spec_.nodes_per_rack + s, tor_id(src_rack), spine_id(s)});
  out->push_back(Hop{spines_[s].get(), dst_rack, spine_id(s), tor_id(dst_rack)});
  out->push_back(Hop{tors_[dst_rack].get(), dst_local, tor_id(dst_rack), dst.node});
}

uint64_t Topology::max_port_queue_bytes() const {
  uint64_t m = 0;
  for (const auto& t : tors_) {
    m = std::max(m, t->max_queue_bytes());
  }
  for (const auto& s : spines_) {
    m = std::max(m, s->max_queue_bytes());
  }
  return m;
}

uint64_t Topology::total_ecn_marks() const {
  uint64_t n = 0;
  for (const auto& t : tors_) {
    n += t->total_ecn_marks();
  }
  for (const auto& s : spines_) {
    n += s->total_ecn_marks();
  }
  return n;
}

uint64_t Topology::total_pause_events() const {
  uint64_t n = 0;
  for (const auto& t : tors_) {
    n += t->total_pause_events();
  }
  for (const auto& s : spines_) {
    n += s->total_pause_events();
  }
  return n;
}

}  // namespace fractos
