#include "src/fabric/network.h"

#include <string>
#include <utility>

#include "src/base/assert.h"
#include "src/sim/metrics.h"

namespace fractos {

namespace {

// Interned names for the per-transfer fast path (one hash lookup per process, ever).
struct NetNames {
  NameId net = intern_name("net");
  NameId nic_wait = intern_name("nic-wait");
  NameId wire = intern_name("wire");
  NameId local = intern_name("local");
  NameId hop = intern_name("hop");
  NameId port_wait = intern_name("port-wait");
};

const NetNames& net_names() {
  static const NetNames n;
  return n;
}

// Records one fabric leg as pre-closed spans: the wait from `ready` to `start` (a
// `wait_kind` span, only if there was a wait) and the transfer itself from `start` to `end`,
// tagged with its wire `bytes` unless that is 0.
void record_leg(SpanTracer* t, SpanKind wait_kind, NameId wait_name, Time ready, Time start,
                NameId name, Time end, uint64_t bytes) {
  const NameId net = net_names().net;
  if (start > ready) {
    t->record(net, wait_kind, wait_name, ready, start);
  }
  const uint64_t id = t->record(net, SpanKind::kFabric, name, start, end);
  if (id != 0 && bytes != 0) {
    t->attr(id, "bytes", std::to_string(bytes));
  }
}

}  // namespace

Network::Network(EventLoop* loop, FabricParams params, TopologySpec topology)
    : loop_(loop), params_(params), topology_(topology),
      publisher_(loop, [this](MetricSink& out) { publish_metrics(out); }) {}

void Network::publish_metrics(MetricSink& out) const {
  const TrafficCounters& c = counters_;
  out.emit("net.messages.control", c.messages[0]);
  out.emit("net.messages.data", c.messages[1]);
  out.emit("net.bytes.control", c.bytes[0]);
  out.emit("net.bytes.data", c.bytes[1]);
  out.emit("net.faults.rc_exhausted", c.rc_exhausted);
  if (injector_ != nullptr) {
    const FaultCounters& f = injector_->counters();
    out.emit("net.faults.drops", f.dropped[0] + f.dropped[1] + f.partition_drops);
    out.emit("net.faults.duplicates", f.duplicated[0] + f.duplicated[1]);
    out.emit("net.faults.delayed", f.delayed[0] + f.delayed[1]);
    out.emit("net.faults.rdma_retransmits", f.rdma_retransmits);
    out.emit("net.faults.rdma_aborts", f.rdma_aborts);
  }
}

void Network::reset_counters() {
  FRACTOS_CHECK_MSG(loop_->metrics() == nullptr,
                    "reset_counters would corrupt the attached metrics registry's window");
  counters_ = TrafficCounters{};
}

uint32_t Network::add_node(std::string name, bool with_snic) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(loop_, id, std::move(name), with_snic));
  egress_free_.push_back(Time{});
  ingress_free_.push_back(Time{});
  local_free_.push_back(Time{});
  topology_.on_node_added(id);
  return id;
}

Node& Network::node(uint32_t id) {
  FRACTOS_CHECK(id < nodes_.size());
  return *nodes_[id];
}

Duration Network::wire_latency(Endpoint a, Endpoint b) const {
  if (a.node != b.node) {
    if (!topology_.flat()) {
      return topology_.spec().sw.link_oneway * static_cast<double>(topology_.num_links(a, b));
    }
    return params_.cross_node_oneway;
  }
  if (a.loc != b.loc) {
    return params_.host_snic_oneway;
  }
  return params_.loopback_oneway;
}

Time Network::schedule_transfer(Endpoint src, Endpoint dst, Traffic category,
                                uint64_t payload_bytes, LinkClass cls) {
  const bool cross = src.node != dst.node;
  const uint64_t wire_bytes =
      payload_bytes + params_.header_bytes * segment_count(payload_bytes, params_.mtu_bytes);

  const size_t cat = static_cast<size_t>(category);
  TrafficCounters& c = counters_;
  c.messages[cat] += 1;
  c.bytes[cat] += wire_bytes;
  if (cross) {
    c.cross_messages[cat] += 1;
    c.cross_bytes[cat] += wire_bytes;
    if (topology_.same_rack(src.node, dst.node)) {
      c.rack_local_messages[cat] += 1;
      c.rack_local_bytes[cat] += wire_bytes;
    }
  }

  if (cross && !topology_.flat()) {
    return schedule_routed_transfer(src, dst, wire_bytes, cls);
  }

  // Flat/local path — the calibrated pre-topology model, bit-identical to the recorded
  // benches. Cross-node transfers occupy the 10 Gbps wire (sender egress + receiver
  // ingress); same-node (NIC loopback / PCIe) transfers occupy a separate, faster local
  // path and do not steal wire bandwidth.
  const double bw = cross ? params_.wire_bandwidth_bpns : params_.local_bandwidth_bpns;
  const Duration serialization = transfer_time(wire_bytes, bw);
  Time start;
  if (cross) {
    start = max(max(loop_->now(), egress_free_[src.node]), ingress_free_[dst.node]);
    egress_free_[src.node] = start + serialization;
    ingress_free_[dst.node] = start + serialization;
  } else {
    start = max(loop_->now(), local_free_[src.node]);
    local_free_[src.node] = start + serialization;
  }

  const Time arrival = start + serialization + wire_latency(src, dst);
  if (span_tracing_active() && loop_->span_tracer() != nullptr) {
    // Waiting for NIC/wire occupancy is queueing; the transfer itself (serialization +
    // propagation) is fabric.
    const NetNames& n = net_names();
    record_leg(loop_->span_tracer(), SpanKind::kQueue, n.nic_wait, loop_->now(), start,
               cross ? n.wire : n.local, arrival, wire_bytes);
  }
  return arrival;
}

Time Network::schedule_routed_transfer(Endpoint src, Endpoint dst, uint64_t wire_bytes,
                                       LinkClass cls) {
  const Duration link = topology_.spec().sw.link_oneway;
  const Duration nic_ser = transfer_time(wire_bytes, params_.wire_bandwidth_bpns);
  topology_.route(src, dst, &route_scratch_);
  FRACTOS_CHECK(!route_scratch_.empty());

  SpanTracer* t =
      span_tracing_active() && loop_->span_tracer() != nullptr ? loop_->span_tracer() : nullptr;
  const NetNames& n = net_names();

  // Store-and-forward at message granularity: the sender NIC serializes onto its ToR link,
  // then every switch on the route re-serializes onto its egress link after draining the
  // queue ahead. The final ToR egress IS the delivery link, so the receiver NIC charges no
  // extra serialization.
  const Time nic_start = max(loop_->now(), egress_free_[src.node]);
  egress_free_[src.node] = nic_start + nic_ser;
  Time at = nic_start + nic_ser + link;
  if (t != nullptr) {
    record_leg(t, SpanKind::kQueue, n.nic_wait, loop_->now(), nic_start, n.wire, at, wire_bytes);
  }

  for (const Topology::Hop& hop : route_scratch_) {
    if (hop.sw == nullptr) {
      continue;  // the NIC hop, charged above
    }
    const Switch::Transit tr =
        hop.sw->traverse(hop.port, at, wire_bytes, cls == LinkClass::kHot);
    if (tr.ecn_marked && ecn_listener_ != nullptr) {
      ecn_listener_(src.node, dst.node);
    }
    if (t != nullptr) {
      // Head-of-line wait at the egress port is congestion (its own tax bucket, so the
      // disaggregation-tax breakdown attributes fabric queueing per hop); the
      // serialization + propagation that follows is fabric proper.
      record_leg(t, SpanKind::kFabricQueue, n.port_wait, at, at + tr.queued, n.hop,
                 tr.depart + link, /*bytes=*/0);
    }
    at = tr.depart + link;
  }
  return at;
}

bool Network::route_blocked(Endpoint src, Endpoint dst, Time now) {
  if (injector_ == nullptr || topology_.flat() || src.node == dst.node) {
    return false;
  }
  if (injector_->plan().flaps.empty()) {
    return false;  // only flap schedules can name switch links
  }
  topology_.route(src, dst, &route_scratch_);
  for (const Topology::Hop& hop : route_scratch_) {
    if (injector_->link_blocked(hop.link_a, hop.link_b, now)) {
      return true;
    }
  }
  return false;
}

void Network::transfer_then(Endpoint src, Endpoint dst, Traffic category, uint64_t payload_bytes,
                            LinkClass cls, EventLoop::Callback then) {
  const Time arrival = schedule_transfer(src, dst, category, payload_bytes, cls);
  loop_->schedule_at(arrival, std::move(then));
}

void Network::send(Endpoint src, Endpoint dst, Traffic category, Payload payload,
                   DeliverFn deliver, DroppedFn dropped) {
  FRACTOS_CHECK(src.node < nodes_.size() && dst.node < nodes_.size());
  if (nodes_[src.node]->failed() || nodes_[dst.node]->failed()) {
    if (dropped != nullptr) {
      loop_->post(std::move(dropped));
    }
    return;
  }

  Time arrival;
  if (injector_ == nullptr) {
    // Clean fabric: no fault draws, just the modeled transfer.
    arrival = schedule_transfer(src, dst, category, payload.size());
  } else {
    // A blocked topology link (spine/ToR flap) eats the message deterministically, before
    // any probabilistic draw — mirroring how on_message treats node-to-node partitions.
    if (route_blocked(src, dst, loop_->now())) {
      injector_->note_partition_drop();
      return;
    }
    const FaultInjector::Verdict v =
        injector_->on_message(src.node, dst.node, category, loop_->now());
    if (v.drop) {
      // Silent loss: unlike the failed-node path, nobody is told. Recovering from it is the
      // reliability layer's job (QueuePair RC retransmit, controller peer-op retries).
      return;
    }
    arrival = schedule_transfer(src, dst, category, payload.size()) + v.extra_delay;
    if (v.duplicate) {
      // A duplicated message is charged twice on the wire and delivered twice; receiver-side
      // dedup (QueuePair sequence numbers) is what keeps it invisible to the layers above.
      // Both copies alias the same Payload rep — duplication costs a refcount bump, not
      // bytes — and share the one move-only `deliver`.
      const Time dup_arrival = schedule_transfer(src, dst, category, payload.size());
      auto shared = std::make_shared<DeliverFn>(std::move(deliver));
      deliver = [shared](Payload bytes) { (*shared)(std::move(bytes)); };
      const uint32_t dd = dst.node;
      loop_->schedule_at(dup_arrival, [this, dd, payload, shared]() mutable {
        if (!nodes_[dd]->failed()) {
          (*shared)(std::move(payload));
        }
      });
    }
  }
  // Failure is re-checked at delivery: a node that failed while the message was in flight
  // never sees it.
  auto arrive = [this, payload = std::move(payload), deliver = std::move(deliver),
                 dropped = std::move(dropped), dst_node = dst.node]() mutable {
    if (nodes_[dst_node]->failed()) {
      if (dropped != nullptr) {
        dropped();
      }
      return;
    }
    deliver(std::move(payload));
  };
  static_assert(sizeof(arrive) <= InlineFn::kInlineBytes, "a message event must not allocate");
  loop_->schedule_at(arrival, std::move(arrive));
}

void Network::rdma_read(Endpoint initiator, uint32_t target, const RdmaKey& key, PoolId pool,
                        uint64_t addr, uint64_t size,
                        std::function<void(Result<Payload>)> done, LinkClass cls) {
  FRACTOS_CHECK(initiator.node < nodes_.size() && target < nodes_.size());
  if (injector_ != nullptr) {
    const bool blocked = route_blocked(initiator, Endpoint{target, Loc::kHost}, loop_->now());
    const FaultInjector::RdmaVerdict v =
        injector_->on_rdma(initiator.node, target, loop_->now(), blocked);
    if (v.abort) {
      loop_->schedule_after(v.delay, [done = std::move(done)]() mutable {
        done(ErrorCode::kTimeout);
      });
      return;
    }
    if (v.retries > 0) {
      loop_->schedule_after(v.delay, [this, initiator, target, key, pool, addr, size, cls,
                                      done = std::move(done)]() mutable {
        rdma_read_impl(initiator, target, key, pool, addr, size, std::move(done), cls);
      });
      return;
    }
  }
  rdma_read_impl(initiator, target, key, pool, addr, size, std::move(done), cls);
}

void Network::rdma_read_impl(Endpoint initiator, uint32_t target, const RdmaKey& key,
                             PoolId pool, uint64_t addr, uint64_t size,
                             std::function<void(Result<Payload>)> done, LinkClass cls) {
  const Endpoint tgt_ep{target, Loc::kHost};

  // Request leg: a header-only work request to the target NIC.
  transfer_then(initiator, tgt_ep, Traffic::kData, 0, cls,
                [this, initiator, target, key, pool, addr, size, tgt_ep, cls,
                 done = std::move(done)]() mutable {
    Node& t = *nodes_[target];
    const Status auth = t.authorize_rdma(key, pool, addr, size, /*is_write=*/false);
    if (!auth.ok()) {
      // NAK: header-only response.
      transfer_then(tgt_ep, initiator, Traffic::kData, 0, cls,
                    [done = std::move(done), auth]() mutable { done(auth.error()); });
      return;
    }
    const PoolBytes& mem = t.pool(pool);
    // The one origin copy: pool bytes into a fresh Payload rep. Every downstream hop shares
    // this rep.
    Payload data = Payload::copy_of(mem.data() + addr, size);
    // Response leg carries the payload.
    transfer_then(tgt_ep, initiator, Traffic::kData, size, cls,
                  [done = std::move(done), data = std::move(data)]() mutable {
                    done(std::move(data));
                  });
  });
}

void Network::rdma_write(Endpoint initiator, uint32_t target, const RdmaKey& key, PoolId pool,
                         uint64_t addr, Payload data, std::function<void(Status)> done,
                         LinkClass cls) {
  FRACTOS_CHECK(initiator.node < nodes_.size() && target < nodes_.size());
  if (injector_ != nullptr) {
    const bool blocked = route_blocked(initiator, Endpoint{target, Loc::kHost}, loop_->now());
    const FaultInjector::RdmaVerdict v =
        injector_->on_rdma(initiator.node, target, loop_->now(), blocked);
    if (v.abort) {
      loop_->schedule_after(v.delay, [done = std::move(done)]() mutable {
        done(Status(ErrorCode::kTimeout));
      });
      return;
    }
    if (v.retries > 0) {
      loop_->schedule_after(v.delay, [this, initiator, target, key, pool, addr, cls,
                                      data = std::move(data), done = std::move(done)]() mutable {
        rdma_write_impl(initiator, target, key, pool, addr, std::move(data), std::move(done),
                        cls);
      });
      return;
    }
  }
  rdma_write_impl(initiator, target, key, pool, addr, std::move(data), std::move(done), cls);
}

void Network::rdma_write_impl(Endpoint initiator, uint32_t target, const RdmaKey& key,
                              PoolId pool, uint64_t addr, Payload data,
                              std::function<void(Status)> done, LinkClass cls) {
  const Endpoint tgt_ep{target, Loc::kHost};
  const uint64_t size = data.size();

  // Request leg carries the payload (a handle — the bytes move only at the final pool copy).
  transfer_then(initiator, tgt_ep, Traffic::kData, size, cls,
                [this, target, key, pool, addr, tgt_ep, initiator, cls, data = std::move(data),
                 done = std::move(done)]() mutable {
                  Node& t = *nodes_[target];
                  const Status auth =
                      t.authorize_rdma(key, pool, addr, data.size(), /*is_write=*/true);
                  if (auth.ok()) {
                    PoolBytes& mem = t.pool(pool);
                    std::copy_n(data.data(), data.size(),
                                mem.begin() + static_cast<ptrdiff_t>(addr));
                  }
                  // ACK/NAK: header-only response.
                  transfer_then(tgt_ep, initiator, Traffic::kData, 0, cls,
                                [done = std::move(done), auth]() mutable { done(auth); });
                });
}

void Network::rdma_third_party(Endpoint initiator, RdmaSide src, RdmaSide dst, uint64_t size,
                               std::function<void(Status)> done) {
  FRACTOS_CHECK(initiator.node < nodes_.size());
  FRACTOS_CHECK(src.node < nodes_.size() && dst.node < nodes_.size());
  if (injector_ != nullptr) {
    // Two wire legs are exposed to faults: the work request (initiator -> src NIC) and the
    // third-party data leg (src -> dst). Either aborting fails the whole verb.
    const Endpoint src_ep{src.node, Loc::kHost};
    const Endpoint dst_ep{dst.node, Loc::kHost};
    const FaultInjector::RdmaVerdict v1 = injector_->on_rdma(
        initiator.node, src.node, loop_->now(), route_blocked(initiator, src_ep, loop_->now()));
    const FaultInjector::RdmaVerdict v2 = injector_->on_rdma(
        src.node, dst.node, loop_->now(), route_blocked(src_ep, dst_ep, loop_->now()));
    const Duration delay = v1.delay + v2.delay;
    if (v1.abort || v2.abort) {
      loop_->schedule_after(delay, [done = std::move(done)]() mutable {
        done(Status(ErrorCode::kTimeout));
      });
      return;
    }
    if (v1.retries > 0 || v2.retries > 0) {
      loop_->schedule_after(delay, [this, initiator, src, dst, size,
                                    done = std::move(done)]() mutable {
        rdma_third_party_impl(initiator, src, dst, size, std::move(done));
      });
      return;
    }
  }
  rdma_third_party_impl(initiator, src, dst, size, std::move(done));
}

void Network::rdma_third_party_impl(Endpoint initiator, RdmaSide src, RdmaSide dst,
                                    uint64_t size, std::function<void(Status)> done) {
  const Endpoint src_ep{src.node, Loc::kHost};
  const Endpoint dst_ep{dst.node, Loc::kHost};

  // Work request to the source NIC.
  transfer_then(initiator, src_ep, Traffic::kData, 0, LinkClass::kBulk,
                [this, initiator, src, dst, size, src_ep, dst_ep,
                 done = std::move(done)]() mutable {
    Node& s = *nodes_[src.node];
    Status auth = s.authorize_rdma(src.key, src.pool, src.addr, size, /*is_write=*/false);
    if (!auth.ok()) {
      transfer_then(src_ep, initiator, Traffic::kData, 0, LinkClass::kBulk,
                    [done = std::move(done), auth]() mutable { done(auth); });
      return;
    }
    const PoolBytes& mem = s.pool(src.pool);
    std::vector<uint8_t> data(mem.begin() + static_cast<ptrdiff_t>(src.addr),
                              mem.begin() + static_cast<ptrdiff_t>(src.addr + size));
    // Data leg goes straight to the destination — the initiator never touches it.
    transfer_then(src_ep, dst_ep, Traffic::kData, size, LinkClass::kBulk,
                  [this, initiator, dst, dst_ep, data = std::move(data),
                   done = std::move(done)]() mutable {
                    Node& t = *nodes_[dst.node];
                    const Status wauth = t.authorize_rdma(dst.key, dst.pool, dst.addr,
                                                          data.size(), /*is_write=*/true);
                    if (wauth.ok()) {
                      PoolBytes& tmem = t.pool(dst.pool);
                      std::copy(data.begin(), data.end(),
                                tmem.begin() + static_cast<ptrdiff_t>(dst.addr));
                    }
                    transfer_then(dst_ep, initiator, Traffic::kData, 0, LinkClass::kBulk,
                                  [done = std::move(done), wauth]() mutable { done(wauth); });
                  });
  });
}

}  // namespace fractos
