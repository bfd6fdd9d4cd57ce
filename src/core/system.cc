#include "src/core/system.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/fabric/topology.h"

namespace fractos {

namespace {

// Checks one fault-plan link endpoint against the topology. Node ids cannot be validated
// here (nodes are added after construction); switch ids can: their ranges are reserved.
std::optional<std::string> check_fault_endpoint(const TopologySpec& topo, uint32_t id,
                                                const char* what) {
  if (id < Topology::kTorIdBase) {
    return std::nullopt;  // a node id; checked against num_nodes by the caller if known
  }
  if (topo.kind == TopologySpec::Kind::kSingleSwitch) {
    return std::string(what) + " references switch id " + std::to_string(id) +
           ", but the topology is single-switch (no addressable switches); use "
           "TopologySpec::fat_tree or name node ids";
  }
  if (id >= Topology::kSpineIdBase) {
    const uint32_t spine = id - Topology::kSpineIdBase;
    if (spine >= topo.num_spines) {
      return std::string(what) + " references spine " + std::to_string(spine) +
             ", but the fat tree has only " + std::to_string(topo.num_spines) + " spine(s)";
    }
  }
  return std::nullopt;  // ToR ids grow with the node count; checked when num_nodes is known
}

bool valid_prob(const double (&p)[2]) {
  return p[0] >= 0.0 && p[0] <= 1.0 && p[1] >= 0.0 && p[1] <= 1.0;
}

}  // namespace

std::optional<std::string> SystemConfig::validate(uint32_t num_nodes) const {
  if (congestion_window == 0) {
    return "congestion_window must be >= 1 (0 would deadlock every delivery queue)";
  }
  if (copy_chunk_bytes == 0) {
    return "copy_chunk_bytes must be >= 1 (0 would make chunked copies loop forever)";
  }
  if (cap_quota == 0) {
    return "cap_quota must be >= 1 (0 would refuse every capability a Process is given)";
  }
  if (peer_op_deadline <= Duration::zero()) {
    return "peer_op_deadline must be positive (" + std::to_string(peer_op_deadline.ns()) +
           "ns would time out every peer op the moment it is sent)";
  }
  if (peer_op_dedup_ttl < peer_op_deadline) {
    return "peer_op_dedup_ttl (" + std::to_string(peer_op_dedup_ttl.ns()) +
           "ns) is shorter than peer_op_deadline (" + std::to_string(peer_op_deadline.ns()) +
           "ns): dedup entries would be evicted while resends of their op can still "
           "arrive, re-executing non-idempotent ops; raise the TTL above the deadline";
  }
  if (fabric.mtu_bytes == 0) {
    return "fabric.mtu_bytes must be >= 1 (a 0-byte MTU cannot segment any payload)";
  }
  if (!(fabric.wire_bandwidth_bpns > 0.0)) {
    return "fabric.wire_bandwidth_bpns must be positive (cross-node transfers never end)";
  }
  if (!(fabric.local_bandwidth_bpns > 0.0)) {
    return "fabric.local_bandwidth_bpns must be positive (same-node transfers never end)";
  }
  if (replication_group_size == 1) {
    return "replication_group_size of 1 replicates nothing (the seat alone); use 0 to "
           "disable replication or >= 2 for an actual group";
  }
  if (num_nodes > 0 && replication_group_size > num_nodes) {
    return "replication_group_size (" + std::to_string(replication_group_size) +
           ") exceeds the cluster size (" + std::to_string(num_nodes) +
           " node(s)): a majority quorum could never assemble";
  }
  if (replication_group_size != 0 && replication.lease < replication.heartbeat) {
    return "replication.lease (" + std::to_string(replication.lease.ns()) +
           "ns) is shorter than replication.heartbeat (" +
           std::to_string(replication.heartbeat.ns()) +
           "ns): the leader's lease would expire between its own heartbeats, deposing a "
           "healthy leader every tick";
  }
  if (replication_group_size != 0 && replication.election_stagger < replication.heartbeat) {
    return "replication.election_stagger (" +
           std::to_string(replication.election_stagger.ns()) +
           "ns) is shorter than replication.heartbeat (" +
           std::to_string(replication.heartbeat.ns()) +
           "ns): candidacy-by-silence is checked at heartbeat granularity, so adjacent "
           "ranks would stand in the same tick, split the vote, and retry in lockstep";
  }
  if (auto err = topology.validate(num_nodes); err.has_value()) {
    return err;
  }
  if (lazy_controller_mesh && replication_group_size != 0) {
    return "lazy_controller_mesh is incompatible with replication: leader announcements "
           "broadcast over the full peer mesh, which a lazy mesh only grows on demand";
  }
  if (!faults.has_value()) {
    return std::nullopt;
  }
  const FaultPlan& plan = *faults;
  if (!valid_prob(plan.drop_prob) || !valid_prob(plan.dup_prob) ||
      !valid_prob(plan.jitter_prob)) {
    return "fault plan probabilities must lie in [0, 1]";
  }
  const uint32_t max_rack =
      num_nodes == 0 ? 0 : (num_nodes - 1) / std::max(topology.nodes_per_rack, 1u);
  auto check_link = [&](uint32_t a, uint32_t b,
                        const char* what) -> std::optional<std::string> {
    for (uint32_t id : {a, b}) {
      if (auto err = check_fault_endpoint(topology, id, what); err.has_value()) {
        return err;
      }
      if (id >= Topology::kTorIdBase && id < Topology::kSpineIdBase && num_nodes > 0 &&
          topology.kind == TopologySpec::Kind::kFatTree) {
        const uint32_t rack = id - Topology::kTorIdBase;
        if (rack > max_rack) {
          return std::string(what) + " references ToR of rack " + std::to_string(rack) +
                 ", but " + std::to_string(num_nodes) + " node(s) at " +
                 std::to_string(topology.nodes_per_rack) + "/rack fill only racks 0.." +
                 std::to_string(max_rack);
        }
      }
      if (id < Topology::kTorIdBase && num_nodes > 0 && id >= num_nodes) {
        return std::string(what) + " references node " + std::to_string(id) +
               ", but only nodes 0.." + std::to_string(num_nodes - 1) + " exist";
      }
    }
    return std::nullopt;
  };
  for (const FaultPlan::LinkOverride& o : plan.link_overrides) {
    if (!valid_prob(o.drop_prob)) {
      return "fault plan link_override probabilities must lie in [0, 1]";
    }
    if (auto err = check_link(o.a, o.b, "fault plan link_override"); err.has_value()) {
      return err;
    }
  }
  for (const FaultPlan::LinkFlap& f : plan.flaps) {
    if (f.end <= f.start) {
      return "fault plan link flap has end <= start (an empty or inverted window)";
    }
    if (auto err = check_link(f.a, f.b, "fault plan link flap"); err.has_value()) {
      return err;
    }
  }
  for (const FaultPlan::NodeOutage& o : plan.outages) {
    if (o.end <= o.start) {
      return "fault plan node outage has end <= start (an empty or inverted window)";
    }
    if (num_nodes > 0 && o.node >= num_nodes) {
      return "fault plan node outage references node " + std::to_string(o.node) +
             ", but only nodes 0.." + std::to_string(num_nodes - 1) + " exist";
    }
  }
  if (plan.rdma_retry_budget == 0) {
    return "fault plan rdma_retry_budget of 0 would abort every perturbed RDMA verb on its "
           "first loss; use >= 1 (or drop the RDMA knobs entirely)";
  }
  return std::nullopt;
}

System::System(SystemConfig config) : config_(config) {
  // Reject inconsistent configs at assembly time with an actionable message, instead of a
  // CHECK failure (or silent misbehavior) in the middle of a long run.
  if (auto err = config_.validate(); err.has_value()) {
    FRACTOS_CHECK_MSG(false, err->c_str());
  }
  net_ = std::make_unique<Network>(&loop_, config_.fabric, config_.topology);
  if (config_.faults.has_value()) {
    net_->install_fault_injector(*config_.faults);
  }
}

uint32_t System::add_node(const std::string& name, bool with_snic) {
  const uint32_t id = net_->add_node(name, with_snic);
  install_authorizer(id);
  return id;
}

void System::install_authorizer(uint32_t node) {
  // NIC-rkey model: resolve the rkey against the owning Controller's object table. When the
  // owner is dead but its seat is replicated, the acting leader authorizes against its
  // replica — RDMA access continues across failover, and revoked capabilities stay refused.
  net_->node(node).set_rdma_authorizer(
      [this](const RdmaKey& key, PoolId pool, uint64_t addr, uint64_t size, bool is_write) {
        Controller* owner = controller_by_addr(key.controller);
        if (owner == nullptr || owner->failed()) {
          for (auto& c : controllers_) {
            if (!c->failed() && c->serves_seat(key.controller)) {
              return c->check_rdma(key, pool, addr, size, is_write);
            }
          }
        }
        if (owner == nullptr) {
          return Status(ErrorCode::kInvalidCapability);
        }
        return owner->check_rdma(key, pool, addr, size, is_write);
      });
}

Controller& System::add_controller(uint32_t node, Loc loc) {
  Controller::Config cfg;
  static_cast<ControllerPolicy&>(cfg) = config_;
  cfg.addr = next_ctrl_addr_++;
  cfg.endpoint = Endpoint{node, loc};
  cfg.costs = loc == Loc::kHost ? ControllerCosts::host() : ControllerCosts::snic();
  controllers_.push_back(std::make_unique<Controller>(net_.get(), cfg));
  Controller& c = *controllers_.back();
  by_addr_[c.addr()] = &c;
  mesh_controller(c);
  return c;
}

void System::mesh_controller(Controller& c) {
  if (config_.lazy_controller_mesh) {
    // No eager pairs: the first send toward an unconnected peer resolves through
    // lazy_connect. &c is stable (controllers_ holds unique_ptrs).
    c.peer_links().set_connector(
        [this, &c](ControllerAddr peer) { return lazy_connect(c, peer); });
    return;
  }
  for (auto& other : controllers_) {
    if (other.get() == &c || other->failed()) {
      continue;
    }
    Channel& mine = c.peer_links().connect(other->addr());
    Channel& theirs = other->peer_links().connect(c.addr());
    Channel::connect(mine, theirs);
    // Exchange reboot generations (the discovery service's job) for eager stale detection.
    c.note_peer_generation(other->addr(), other->table().reboot_count());
    other->note_peer_generation(c.addr(), c.table().reboot_count());
  }
}

Channel* System::lazy_connect(Controller& self, ControllerAddr peer_addr) {
  Controller* other = controller_by_addr(peer_addr);
  if (other == nullptr || other->failed() || other == &self) {
    return nullptr;
  }
  // A severed leftover on the other side (self failed and restarted without a
  // restart_controller round) would fail connect's uniqueness CHECK; drop it first.
  other->peer_links().drop(self.addr());
  Channel& mine = self.peer_links().connect(other->addr());
  Channel& theirs = other->peer_links().connect(self.addr());
  Channel::connect(mine, theirs);
  self.note_peer_generation(other->addr(), other->table().reboot_count());
  other->note_peer_generation(self.addr(), self.table().reboot_count());
  return &mine;
}

std::vector<Controller*> System::controllers() {
  std::vector<Controller*> out;
  out.reserve(controllers_.size());
  for (auto& c : controllers_) {
    out.push_back(c.get());
  }
  return out;
}

Process& System::spawn(const std::string& name, uint32_t node, Controller& controller,
                       uint64_t heap_bytes) {
  if (heap_bytes == 0) {
    heap_bytes = kDefaultHeapBytes;
  }
  const PoolId heap = net_->node(node).add_pool(heap_bytes);
  const ProcessId pid = next_pid_++;
  procs_.push_back(std::make_unique<Process>(net_.get(), pid, name, node, heap,
                                             controller.endpoint()));
  Process& p = *procs_.back();
  Channel& ctrl_side = controller.attach_process(pid, node, heap);
  Channel::connect(p.channel(), ctrl_side);
  procs_by_node_[node].push_back(&p);
  proc_ctrl_[pid] = &controller;
  return p;
}

Result<CapId> System::bootstrap_grant(Process& from, CapId cid, Process& to) {
  Controller* src_ctrl = proc_ctrl_.at(from.pid());
  Controller* dst_ctrl = proc_ctrl_.at(to.pid());
  auto entry = src_ctrl->inspect_cap(from.pid(), cid);
  if (!entry.ok()) {
    return entry.error();
  }
  return dst_ctrl->bootstrap_install(to.pid(), entry.value());
}

void System::set_admission(Process& p, uint32_t limit) {
  proc_ctrl_.at(p.pid())->set_admission_limit(p.pid(), limit);
}

void System::replicate_controller(Controller& seat, const std::vector<Controller*>& replicas) {
  FRACTOS_CHECK_MSG(!replicas.empty(), "a replication group needs at least one replica");
  if (config_.replication_group_size != 0) {
    FRACTOS_CHECK_MSG(replicas.size() + 1 == config_.replication_group_size,
                      "replica count does not match config.replication_group_size");
  }
  std::vector<ControllerAddr> members;
  members.reserve(replicas.size() + 1);
  members.push_back(seat.addr());
  for (Controller* r : replicas) {
    FRACTOS_CHECK_MSG(r != nullptr && r != &seat && !r->failed(),
                      "replicas must be distinct live controllers other than the seat");
    members.push_back(r->addr());
  }
  const uint32_t seat_reboot = seat.table().reboot_count();
  seat.enable_replication(seat.addr(), members, seat_reboot, config_.replication);
  for (Controller* r : replicas) {
    r->enable_replication(seat.addr(), members, seat_reboot, config_.replication);
  }
}

Controller* System::controller_by_addr(ControllerAddr addr) {
  auto it = by_addr_.find(addr);
  return it == by_addr_.end() ? nullptr : it->second;
}

void System::restart_controller(Controller& c) {
  c.restart();
  for (auto& other : controllers_) {
    if (other.get() != &c) {
      other->peer_links().drop(c.addr());
    }
  }
  mesh_controller(c);
}

void System::fail_node(uint32_t node) {
  net_->node(node).fail();
  auto it = procs_by_node_.find(node);
  if (it != procs_by_node_.end()) {
    for (Process* p : it->second) {
      p->fail();
    }
  }
  for (auto& c : controllers_) {
    if (c->endpoint().node == node && !c->failed()) {
      c->fail();
    }
  }
}

}  // namespace fractos
