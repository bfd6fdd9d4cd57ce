#include "src/core/controller.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"
#include "src/base/extent.h"
#include "src/futures/timeout.h"
#include "src/sim/metrics.h"

namespace fractos {

namespace {

// "peer-<type>" span names, interned lazily on first use (MsgType is a uint8_t enum).
NameId peer_msg_type_span_name(MsgType t) {
  static NameId cache[256] = {};
  NameId& id = cache[static_cast<uint8_t>(t)];
  if (id == kInvalidNameId) {
    id = intern_name(std::string("peer-") + msg_type_name(t));
  }
  return id;
}

// The op an owner-bound derive runs at the owner. A syscall on an owned capability and a
// peer's kRemoteDerive both describe the derive as a RemoteDeriveMsg; an op leaves the fields
// it does not use at their defaults.
ReplicatedOp op_of(RemoteDeriveMsg m) {
  // Indexed by RemoteDeriveMsg::Op, whose out-of-range values strict decoding refuses.
  static constexpr ReplicatedOp::Kind kKinds[] = {
      ReplicatedOp::Kind::kDeriveRequest,  // kRequestRefine
      ReplicatedOp::Kind::kDeriveMemory,   // kMemoryDiminish
      ReplicatedOp::Kind::kRevtreeChild,   // kRevtreeChild
      ReplicatedOp::Kind::kRevoke,         // kRevoke
  };
  static_assert(std::size(kKinds) ==
                static_cast<size_t>(enum_last(RemoteDeriveMsg::Op{})) + 1);
  ReplicatedOp op;
  op.kind = kKinds[static_cast<size_t>(m.op)];
  op.requester = m.requester;
  op.base = m.base.index;
  op.offset = m.offset;
  op.size = m.size;
  op.perms = m.drop_perms;
  op.imms = std::move(m.imms);
  op.caps = std::move(m.caps);
  return op;
}

ReplicatedOp op_of(const RegisterMonitorMsg& m) {
  ReplicatedOp op;
  op.kind = m.delegate_mode ? ReplicatedOp::Kind::kMonitorDelegate
                            : ReplicatedOp::Kind::kMonitorReceive;
  op.base = m.target.index;
  op.callback_id = m.callback_id;
  op.sub_controller = m.subscriber_controller;
  op.sub_process = m.subscriber_process;
  return op;
}

}  // namespace

Controller::Controller(Network* net, Config config)
    : net_(net), config_(config), table_(config.addr),
      tcache_(config.translation_cache_entries),
      publisher_(net->loop(), [this](MetricSink& out) { publish_metrics(out); }) {
  FRACTOS_CHECK(net != nullptr);  // deployment wiring (System::add_controller), not input
  exec_ = &net_->node(config_.endpoint.node).context(config_.endpoint.loc);
  name_id_ = intern_name("ctrl-" + std::to_string(config_.addr));
  // Interning is registry-free; the registry only learns these keys if a site touches them.
  const std::string addr = std::to_string(config_.addr);
  translations_key_ = intern_name("ctrl." + addr + ".translations");
  revoke_subtree_key_ = intern_name("cap." + addr + ".revoke_subtree");
  batch_occupancy_key_ = intern_name("cap." + addr + ".batch_occupancy");
}

void Controller::publish_metrics(MetricSink& out) const {
  const std::string addr = std::to_string(config_.addr);
  const std::string mp = "ctrl." + addr + ".";
  out.emit(mp + "syscalls", stats_.syscalls);
  out.emit(mp + "deliveries", stats_.deliveries);
  out.emit(mp + "peer_retries", stats_.peer_retries);
  out.emit(mp + "peer_op_timeouts", stats_.peer_op_timeouts);
  out.emit(mp + "peer_dedup_hits", stats_.peer_dedup_hits);
  out.emit(mp + "late_reply", stats_.late_replies_ignored);
  out.emit(mp + "admission.admitted", stats_.admission_admitted);
  out.emit(mp + "admission.shed", stats_.admission_shed);
  const std::string cp = "cap." + addr + ".";
  out.emit(cp + "xlate_hit", tcache_.hits());
  out.emit(cp + "xlate_miss", tcache_.misses());
}

Controller::~Controller() {
  // Peer ops still in flight at teardown complete with kChannelClosed; their futures would
  // otherwise trip the broken-promise detector.
  links_.fail_all(ErrorCode::kChannelClosed);
}

// --- wiring ----------------------------------------------------------------------------------

Channel& Controller::attach_process(ProcessId pid, uint32_t proc_node, PoolId heap_pool) {
  FRACTOS_CHECK(!procs_.contains(pid));  // System::spawn mints each pid once; not input
  auto state = std::make_unique<ProcState>(config_.cap_quota);
  state->pid = pid;
  state->node = proc_node;
  state->heap_pool = heap_pool;
  state->chan = std::make_unique<Channel>(net_, config_.endpoint);
  Channel& chan = *state->chan;
  chan.set_handler([this, pid](Envelope&& env) { on_process_msg(pid, std::move(env)); });
  chan.set_severed_handler([this, pid]() {
    // "A Process failure is detected by the owner Controller when their channel is severed."
    if (!failed_) {
      process_failed(pid);
    }
  });
  procs_.emplace(pid, std::move(state));
  return chan;
}

Result<CapId> Controller::bootstrap_install(ProcessId pid, CapEntry entry) {
  auto it = procs_.find(pid);
  if (it == procs_.end() || !it->second->alive) {
    return ErrorCode::kNotFound;
  }
  return it->second->caps.install(entry);
}

Result<CapEntry> Controller::inspect_cap(ProcessId pid, CapId cid) const {
  auto it = procs_.find(pid);
  if (it == procs_.end()) {
    return ErrorCode::kNotFound;
  }
  return it->second->caps.get(cid);
}

size_t Controller::cap_space_size(ProcessId pid) const {
  auto it = procs_.find(pid);
  return it == procs_.end() ? 0 : it->second->caps.size();
}

// --- RDMA authorization ------------------------------------------------------------------------

Status Controller::check_rdma(const RdmaKey& key, PoolId pool, uint64_t addr, uint64_t size,
                              bool is_write) const {
  if (failed_) {
    return ErrorCode::kChannelClosed;
  }
  // key.controller is the owning seat: normally this Controller itself, but after a failover
  // the acting leader authorizes against its replica — a revoked object fails here on every
  // member that may legally answer.
  const ObjectTable* t = serving_table(key.controller);
  if (t == nullptr) {
    return ErrorCode::kInvalidCapability;
  }
  auto resolved = t->resolve_memory(key.object, key.generation);
  if (!resolved.ok()) {
    return resolved.error();
  }
  const auto& mem = resolved.value();
  if (mem.desc.pool != pool || addr < mem.desc.addr ||
      !extent_within(addr - mem.desc.addr, size, mem.desc.size)) {
    return ErrorCode::kOutOfRange;
  }
  if (!perms_allow(mem.perms, is_write ? Perms::kWrite : Perms::kRead)) {
    return ErrorCode::kPermissionDenied;
  }
  return ok_status();
}

// --- dispatch ----------------------------------------------------------------------------------

Duration Controller::cost_of(const Envelope& env) const {
  const ControllerCosts& c = config_.costs;
  switch (env.type) {
    case MsgType::kNullOp:
      return c.null_op;
    case MsgType::kMemoryCopy:
      return c.memcopy_setup;
    case MsgType::kRequestInvoke: {
      const auto& m = std::get<RequestInvokeMsg>(env.body);
      return c.request_traversal + c.cap_install * static_cast<double>(m.caps.size());
    }
    case MsgType::kRemoteInvoke: {
      const auto& m = std::get<RemoteInvokeMsg>(env.body);
      const double n = static_cast<double>(m.caps.size());
      return c.net_deserialize + c.request_traversal + (c.cap_deserialize + c.cap_install) * n;
    }
    case MsgType::kRemoteDerive: {
      const auto& m = std::get<RemoteDeriveMsg>(env.body);
      return c.syscall_base + c.cap_deserialize * static_cast<double>(m.caps.size());
    }
    case MsgType::kRemoteDeriveBatch: {
      // One syscall_base for the whole frame: batching amortizes the per-message fixed
      // cost across its members (each still pays its own capability deserialization).
      const auto& m = std::get<RemoteDeriveBatchMsg>(env.body);
      size_t caps = 0;
      for (const RemoteDeriveMsg& op : m.ops) {
        caps += op.caps.size();
      }
      return c.syscall_base + c.cap_deserialize * static_cast<double>(caps);
    }
    case MsgType::kDeliverAck:
      return Duration::nanos(50);
    default:
      return c.syscall_base;
  }
}

void Controller::on_process_msg(ProcessId pid, Envelope&& env) {
  if (failed_) {
    return;
  }
  // Evaluate the cost before the capture list moves `env` (argument order is unspecified).
  const Duration cost = cost_of(env);
  // The kController span covers arrival (message off the channel) to handler completion;
  // exec_->run itself records the core-wait slice as kQueue, which wins attribution for it.
  uint64_t span = 0;
  if (span_tracing_active() && net_->loop()->span_tracer() != nullptr) {
    span = net_->loop()->span_tracer()->begin(
        name_id_, SpanKind::kController, msg_type_span_name(env.type), net_->loop()->now());
  }
  exec_->run(cost, [this, pid, span, env = std::move(env)]() mutable {
    auto it = procs_.find(pid);
    if (it != procs_.end() && it->second->alive && !failed_) {
      handle_syscall(*it->second, env);
    }
    if (span != 0) {
      if (SpanTracer* t = net_->loop()->span_tracer()) {
        t->end(span, net_->loop()->now());
      }
    }
  });
}

void Controller::on_peer_msg(ControllerAddr peer, Envelope&& env) {
  if (failed_) {
    return;
  }
  const Duration cost = cost_of(env);
  uint64_t span = 0;
  if (span_tracing_active() && net_->loop()->span_tracer() != nullptr) {
    span = net_->loop()->span_tracer()->begin(
        name_id_, SpanKind::kController, peer_msg_type_span_name(env.type),
        net_->loop()->now());
  }
  exec_->run(cost, [this, peer, span, env = std::move(env)]() mutable {
    if (span != 0) {
      if (SpanTracer* t = net_->loop()->span_tracer()) {
        t->end(span, net_->loop()->now());
      }
    }
    if (failed_) {
      return;
    }
    switch (env.type) {
      case MsgType::kRemoteInvoke:
        peer_remote_invoke(peer, std::get<RemoteInvokeMsg>(env.body));
        break;
      case MsgType::kRemoteDerive:
        peer_remote_derive(peer, std::get<RemoteDeriveMsg>(env.body));
        break;
      case MsgType::kRemoteDeriveBatch:
        peer_remote_derive_batch(peer, std::get<RemoteDeriveBatchMsg>(env.body));
        break;
      case MsgType::kPeerReply:
        links_.on_reply(peer, std::get<PeerReplyMsg>(env.body));
        break;
      case MsgType::kPeerReplyBatch:
        for (const PeerReplyMsg& r : std::get<PeerReplyBatchMsg>(env.body).replies) {
          links_.on_reply(peer, r);
        }
        break;
      case MsgType::kRevokeBroadcast:
        peer_revoke_broadcast(peer, std::get<RevokeBroadcastMsg>(env.body));
        break;
      case MsgType::kRevokeAck:
        peer_revoke_ack(std::get<RevokeAckMsg>(env.body));
        break;
      case MsgType::kRegisterMonitor:
        peer_register_monitor(peer, env.seq, std::get<RegisterMonitorMsg>(env.body));
        break;
      case MsgType::kMonitorFired:
        peer_monitor_fired(std::get<MonitorFiredMsg>(env.body));
        break;
      case MsgType::kRemoteInvokeError:
        peer_invoke_error(std::get<RemoteInvokeErrorMsg>(env.body));
        break;
      case MsgType::kReplAppend:
      case MsgType::kReplAppendReply:
      case MsgType::kReplVote:
      case MsgType::kReplVoteReply:
      case MsgType::kReplSnapshot:
        handle_repl_msg(peer, env);
        break;
      case MsgType::kReplLeaderAnnounce:
        peer_leader_announce(std::get<ReplLeaderAnnounceMsg>(env.body));
        break;
      default:
        ++stats_.rejected_msgs;  // a peer's envelope of a type peers do not send
    }
  });
}

void Controller::charge(Duration cost, EventLoop::Callback fn) {
  exec_->run(cost, std::move(fn));
}

void Controller::note_translation(Duration cost) {
  if (MetricsRegistry* m = net_->loop()->metrics()) {
    m->add(translations_key_);
  }
  static const NameId kCapSerialize = intern_name("cap-serialize");
  record_translation_span(cost, kCapSerialize);
}

void Controller::record_translation_span(Duration cost, NameId name) {
  if (span_tracing_active() && net_->loop()->span_tracer() != nullptr) {
    // Called from the charge() callback, so the scaled cost has just elapsed on exec_:
    // the execution window is exactly [now - cost/speed, now].
    const Time now = net_->loop()->now();
    const Duration scaled = cost / exec_->speed();
    net_->loop()->span_tracer()->record(name_id_, SpanKind::kTranslation, name,
                                        Time::from_ns(now.ns() - scaled.ns()), now);
  }
}

Duration Controller::translation_extra_cost(ObjectIndex idx) const {
  if (!config_.charge_chain_traversal) {
    return Duration::zero();
  }
  if (tcache_.enabled() && tcache_.contains(idx)) {
    return Duration::zero();  // hit: the memoized route skips the chain walk entirely
  }
  const size_t depth = table_.chain_depth(idx);
  if (depth <= 1) {
    return Duration::zero();  // roots (and unknown indices, which fail later) walk nothing
  }
  return config_.costs.request_traversal * static_cast<double>(depth - 1);
}

Status Controller::translation_cache_audit() const {
  ErrorCode bad = ErrorCode::kOk;
  tcache_.for_each([&](ObjectIndex idx, const ObjectTable::ResolvedRequest& cached) {
    auto fresh = table_.resolve_request(idx, table_.reboot_count());
    if (!fresh.ok()) {
      // Still cached but no longer resolvable: a stale entry survived its revocation.
      bad = ErrorCode::kInternal;
      return;
    }
    const ObjectTable::ResolvedRequest& f = fresh.value();
    if (f.provider != cached.provider || f.endpoint_cid != cached.endpoint_cid ||
        f.args.imms != cached.args.imms || f.args.caps != cached.args.caps) {
      bad = ErrorCode::kInternal;
    }
  });
  return bad == ErrorCode::kOk ? ok_status() : Status(bad);
}

// --- syscall handlers ----------------------------------------------------------------------------

void Controller::handle_syscall(ProcState& p, Envelope& env) {
  ++stats_.syscalls;
  switch (env.type) {
    case MsgType::kNullOp:
      reply(p, env.seq, ErrorCode::kOk);
      break;
    case MsgType::kMemoryCreate:
      sc_memory_create(p, env.seq, std::get<MemoryCreateMsg>(env.body));
      break;
    case MsgType::kMemoryDiminish:
      sc_memory_diminish(p, env.seq, std::get<MemoryDiminishMsg>(env.body));
      break;
    case MsgType::kMemoryCopy:
      sc_memory_copy(p, env.seq, std::get<MemoryCopyMsg>(env.body));
      break;
    case MsgType::kRequestCreate:
      sc_request_create(p, env.seq, std::get<RequestCreateMsg>(env.body));
      break;
    case MsgType::kRequestInvoke:
      sc_request_invoke(p, env.seq, std::get<RequestInvokeMsg>(env.body));
      break;
    case MsgType::kCapCreateRevtree:
      sc_cap_create_revtree(p, env.seq, std::get<CapCreateRevtreeMsg>(env.body));
      break;
    case MsgType::kCapRevoke:
      sc_cap_revoke(p, env.seq, std::get<CapRevokeMsg>(env.body));
      break;
    case MsgType::kMonitorDelegate:
      sc_monitor(p, env.seq, std::get<MonitorMsg>(env.body), /*delegate_mode=*/true);
      break;
    case MsgType::kMonitorReceive:
      sc_monitor(p, env.seq, std::get<MonitorMsg>(env.body), /*delegate_mode=*/false);
      break;
    case MsgType::kDeliverAck: {
      if (p.outstanding > 0) {
        --p.outstanding;
      }
      drain_deliveries(p);
      break;
    }
    default:
      ++stats_.rejected_msgs;  // a Process's envelope of a type Processes do not send
  }
}

void Controller::reply(ProcState& p, uint64_t seq, ErrorCode status, CapId cid) {
  SyscallReplyMsg m;
  m.call_seq = seq;
  m.status = status;
  m.cid = cid;
  p.chan->send(Traffic::kControl, make_envelope(next_seq_++, m));
}

void Controller::sc_memory_create(ProcState& p, uint64_t seq, const MemoryCreateMsg& m) {
  // The Process registers memory it physically owns: a pool on its own node.
  Node& node = net_->node(p.node);
  if (Status s = node.check_extent(m.pool, m.addr, m.size); !s.ok()) {
    reply(p, seq, s.error());
    return;
  }
  ReplicatedOp op;
  op.kind = ReplicatedOp::Kind::kCreateMemory;
  op.requester = p.pid;
  op.mem = MemoryDesc{p.node, m.pool, m.addr, m.size};
  op.perms = m.perms;
  // A creation has no base: it targets this Controller's own seat, at its current generation.
  const ObjectRef seat{addr(), kInvalidObject, table_.reboot_count()};
  const ProcessId pid = p.pid;
  serve_mutation(seat, std::move(op), [this, pid, seq](PeerReplyMsg r, bool /*settled*/) {
    reply_with_cap(pid, seq, std::move(r));
  });
}

void Controller::sc_memory_diminish(ProcState& p, uint64_t seq, const MemoryDiminishMsg& m) {
  auto entry = p.caps.get(m.cid);
  if (!entry.ok()) {
    reply(p, seq, entry.error());
    return;
  }
  const CapEntry& e = entry.value();
  if (e.kind != ObjectKind::kMemory) {
    reply(p, seq, ErrorCode::kWrongObjectKind);
    return;
  }
  RemoteDeriveMsg rd;
  rd.base = e.ref;
  rd.op = RemoteDeriveMsg::Op::kMemoryDiminish;
  rd.requester = p.pid;
  rd.offset = m.offset;
  rd.size = m.size;
  rd.drop_perms = m.drop_perms;
  derive_at_owner(p, seq, std::move(rd));
}

void Controller::derive_at_owner(ProcState& p, uint64_t seq, RemoteDeriveMsg rd) {
  const ProcessId pid = p.pid;
  const bool yields_cap = rd.op != RemoteDeriveMsg::Op::kRevoke;
  auto answer = [this, pid, seq, yields_cap](Result<PeerReplyMsg>&& res) {
    if (yields_cap) {
      reply_with_cap(pid, seq, std::move(res));
    } else {
      reply_with_status(pid, seq, std::move(res));
    }
  };
  if (rd.base.owner == addr()) {
    const ObjectRef target = rd.base;
    serve_mutation(target, op_of(std::move(rd)),
                   [answer](PeerReplyMsg r, bool /*settled*/) { answer(std::move(r)); });
    return;
  }
  // Derivation at the owner: single message to the owning Controller (Section 3.5).
  rd.op_id = next_op_id_++;
  const ControllerAddr owner = route_owner(rd.base.owner);
  if (rd.op != RemoteDeriveMsg::Op::kRequestRefine) {
    links_.call_derive(owner, std::move(rd)).on_ready(std::move(answer));
    return;
  }
  // A refinement's capability arguments are delegated (serialized) on the way.
  const Duration extra = cap_serialize_cost(rd.caps);
  charge(extra, [this, owner, extra, rd = std::move(rd), answer = std::move(answer)]() mutable {
    note_translation(extra);
    links_.call_derive(owner, std::move(rd)).on_ready(std::move(answer));
  });
}

void Controller::reply_with_cap(ProcessId pid, uint64_t seq, Result<PeerReplyMsg> res) {
  auto it = procs_.find(pid);
  if (it == procs_.end() || !it->second->alive) {
    return;
  }
  ProcState& proc = *it->second;
  if (!res.ok()) {
    reply(proc, seq, res.error());
    return;
  }
  const PeerReplyMsg& r = res.value();
  if (r.status != ErrorCode::kOk) {
    reply(proc, seq, r.status);
    return;
  }
  const WireCap& wc = r.result;
  auto cid = proc.caps.install(CapEntry{wc.ref, wc.kind, wc.perms, wc.mem, wc.tracked});
  reply(proc, seq, cid.ok() ? ErrorCode::kOk : cid.error(), cid.value_or(kInvalidCap));
}

void Controller::reply_with_status(ProcessId pid, uint64_t seq, Result<PeerReplyMsg> res) {
  auto it = procs_.find(pid);
  if (it != procs_.end() && it->second->alive) {
    reply(*it->second, seq, res.ok() ? res.value().status : res.error());
  }
}

void Controller::sc_memory_copy(ProcState& p, uint64_t seq, const MemoryCopyMsg& m) {
  auto src = p.caps.get(m.src);
  auto dst = p.caps.get(m.dst);
  if (!src.ok() || !dst.ok()) {
    reply(p, seq, ErrorCode::kInvalidCapability);
    return;
  }
  if (src.value().kind != ObjectKind::kMemory || dst.value().kind != ObjectKind::kMemory) {
    reply(p, seq, ErrorCode::kWrongObjectKind);
    return;
  }
  if (!perms_allow(src.value().perms, Perms::kRead) ||
      !perms_allow(dst.value().perms, Perms::kWrite)) {
    reply(p, seq, ErrorCode::kPermissionDenied);
    return;
  }
  // Resolve the sub-range views. length == 0 means the whole overlap (min of both views) —
  // this lets services point one fixed staging-window capability at variable-sized client
  // buffers without deriving a fresh Memory object per operation.
  CapEntry src_view = src.value();
  CapEntry dst_view = dst.value();
  if (m.src_off > src_view.mem.size || m.dst_off > dst_view.mem.size) {
    reply(p, seq, ErrorCode::kOutOfRange);
    return;
  }
  src_view.mem.addr += m.src_off;
  src_view.mem.size -= m.src_off;
  dst_view.mem.addr += m.dst_off;
  dst_view.mem.size -= m.dst_off;
  const uint64_t length =
      m.length == 0 ? std::min(src_view.mem.size, dst_view.mem.size) : m.length;
  if (length > src_view.mem.size || length > dst_view.mem.size) {
    reply(p, seq, ErrorCode::kOutOfRange);
    return;
  }
  src_view.mem.size = length;
  dst_view.mem.size = length;
  do_copy(p, seq, src_view, dst_view);
}

void Controller::do_copy(ProcState& p, uint64_t seq, const CapEntry& src, const CapEntry& dst) {
  const uint64_t total = src.mem.size;
  ++stats_.copies;
  stats_.copy_bytes += total;
  const ProcessId pid = p.pid;
  auto done = [this, pid, seq](Status s) {
    auto it = procs_.find(pid);
    if (it == procs_.end() || !it->second->alive) {
      return;
    }
    reply(*it->second, seq, s.ok() ? ErrorCode::kOk : s.error());
  };
  if (config_.hw_third_party_copies) {
    Network::RdmaSide s{src.mem.node, key_of(src.ref), src.mem.pool, src.mem.addr};
    Network::RdmaSide d{dst.mem.node, key_of(dst.ref), dst.mem.pool, dst.mem.addr};
    net_->rdma_third_party(config_.endpoint, s, d, total, std::move(done));
    return;
  }
  bounce_copy_chunked(config_.endpoint, src, dst, total, std::move(done));
}

void Controller::bounce_copy_chunked(Endpoint self, CapEntry src, CapEntry dst, uint64_t total,
                                     std::function<void(Status)> done) {
  // "FractOS uses double buffering for buffers larger than 16 KB" (Fig. 5): below the
  // threshold the copy is one read followed by one write through the Controller's bounce
  // buffers; above it, fixed-size chunks are pipelined with up to two reads in flight, so a
  // chunk's write overlaps the next chunk's read.
  struct CopyState {
    Network* net;
    Endpoint self;
    CapEntry src;
    CapEntry dst;
    uint64_t total = 0;
    uint64_t chunk = 0;
    uint64_t next_read = 0;
    uint64_t written = 0;
    uint32_t reads_in_flight = 0;
    bool failed = false;
    std::function<void(Status)> done;
  };
  auto st = std::make_shared<CopyState>();
  st->net = net_;
  st->self = self;
  st->src = src;
  st->dst = dst;
  st->total = total;
  st->chunk = total <= kDoubleBufferThreshold ? total : config_.copy_chunk_bytes;
  st->done = std::move(done);
  if (total == 0) {
    net_->loop()->post([st]() { st->done(ok_status()); });
    return;
  }

  // Recursive lambda via a shared function object. The self-capture is WEAK: pending RDMA
  // callbacks hold the function strongly, so it lives exactly as long as the copy is in
  // flight and is reclaimed afterwards (a strong self-capture would leak one CopyState per
  // operation).
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [st, weak_pump = std::weak_ptr<std::function<void()>>(pump)]() {
    auto pump = weak_pump.lock();
    if (!pump) {
      return;
    }
    while (!st->failed && st->next_read < st->total && st->reads_in_flight < 2) {
      const uint64_t off = st->next_read;
      const uint64_t len = std::min(st->chunk, st->total - off);
      st->next_read += len;
      ++st->reads_in_flight;
      st->net->rdma_read(
          st->self, st->src.mem.node, RdmaKey{st->src.ref.owner, st->src.ref.index,
                                              st->src.ref.reboot_count},
          st->src.mem.pool, st->src.mem.addr + off, len,
          [st, pump, off, len](Result<Payload> data) {
            --st->reads_in_flight;
            if (st->failed) {
              return;
            }
            if (!data.ok()) {
              st->failed = true;
              st->done(data.error());
              return;
            }
            // Hand the read's Payload handle straight to the write — the bounce "copy"
            // through the Controller moves no bytes in the simulator.
            st->net->rdma_write(
                st->self, st->dst.mem.node,
                RdmaKey{st->dst.ref.owner, st->dst.ref.index, st->dst.ref.reboot_count},
                st->dst.mem.pool, st->dst.mem.addr + off, std::move(data).value(),
                [st, len](Status ws) {
                  if (st->failed) {
                    return;
                  }
                  if (!ws.ok()) {
                    st->failed = true;
                    st->done(ws);
                    return;
                  }
                  st->written += len;
                  if (st->written == st->total) {
                    st->done(ok_status());
                  }
                });
            (*pump)();
          });
    }
  };
  (*pump)();
}

void Controller::set_admission_limit(ProcessId pid, uint32_t limit) {
  auto it = procs_.find(pid);
  FRACTOS_CHECK(it != procs_.end());  // an operator call on a Process it deployed; not input
  it->second->admission_limit = limit;
  if (limit == 0) {
    it->second->admission_inflight = 0;
  }
}

void Controller::note_peer_generation(ControllerAddr peer, uint32_t reboot_count) {
  uint32_t& gen = peer_gens_[peer];
  if (reboot_count > gen) {
    gen = reboot_count;
  }
}

bool Controller::is_stale(const ObjectRef& ref) const {
  if (ref.owner == addr()) {
    return ref.reboot_count != table_.reboot_count();
  }
  auto it = peer_gens_.find(ref.owner);
  return it != peer_gens_.end() && ref.reboot_count < it->second;
}

Duration Controller::cap_serialize_cost(const std::vector<WireCap>& caps) {
  Duration total = Duration::zero();
  for (const WireCap& wc : caps) {
    const uint64_t key = (static_cast<uint64_t>(wc.ref.owner) << 48) ^ wc.ref.index;
    if (config_.cache_serialized_requests && serialized_cache_.contains(key)) {
      total += config_.costs.cap_serialize * ControllerCosts::kSerializedCacheDiscount;
    } else {
      total += config_.costs.cap_serialize;
      if (config_.cache_serialized_requests) {
        serialized_cache_.insert(key);
      }
    }
  }
  return total;
}

void Controller::node_recovered(uint32_t /*node*/) {
  ++stats_.node_recoveries;
}

void Controller::node_failed(uint32_t node) {
  std::vector<ProcessId> victims;
  for (auto& [pid, proc] : procs_) {
    if (proc->alive && proc->node == node) {
      victims.push_back(pid);
    }
  }
  for (ProcessId pid : victims) {
    process_failed(pid);
  }
}

Result<WireCap> Controller::make_wire_cap(ProcState& p, CapId cid) {
  auto entry = p.caps.get(cid);
  if (!entry.ok()) {
    return entry.error();
  }
  const CapEntry& e = entry.value();
  if (is_stale(e.ref)) {
    return ErrorCode::kStaleCapability;
  }
  WireCap wc;
  wc.ref = e.ref;
  wc.kind = e.kind;
  wc.perms = e.perms;
  wc.mem = e.mem;
  wc.tracked = e.tracked;
  if (e.ref.owner == addr()) {
    // A deposed seat can neither vouch for its objects nor log a child it mints.
    if (!can_mutate_seat(addr())) {
      return ErrorCode::kNotLeader;
    }
    // Owner-side monitor interception: delegating a monitor_delegate'd object creates a
    // tracked per-delegation child (Section 3.6). Only a created child is logged.
    ReplicatedOp op;
    op.kind = ReplicatedOp::Kind::kPrepareDelegation;
    op.base = e.ref.index;
    const ObjectTable::ApplyOutcome out = table_.apply(op);
    if (!out.status.ok()) {
      return out.status.error();
    }
    if (out.produced_index != e.ref.index) {
      wc.ref = table_.ref_of(out.produced_index);
      wc.tracked = true;
      op.result_index = out.produced_index;
      log_mutation(addr(), std::move(op));
    }
  }
  return wc;
}

Result<std::vector<WireCap>> Controller::make_wire_caps(ProcState& p,
                                                        const std::vector<CapId>& cids) {
  std::vector<WireCap> out;
  out.reserve(cids.size());
  for (CapId cid : cids) {
    auto wc = make_wire_cap(p, cid);
    if (!wc.ok()) {
      return wc.error();
    }
    out.push_back(wc.value());
  }
  return out;
}

void Controller::sc_request_create(ProcState& p, uint64_t seq, const RequestCreateMsg& m) {
  auto caps = make_wire_caps(p, m.caps);
  if (!caps.ok()) {
    reply(p, seq, caps.error());
    return;
  }
  if (m.has_base) {
    auto base = p.caps.get(m.base);
    if (!base.ok()) {
      reply(p, seq, base.error());
      return;
    }
    if (base.value().kind != ObjectKind::kRequest) {
      reply(p, seq, ErrorCode::kWrongObjectKind);
      return;
    }
    RemoteDeriveMsg rd;
    rd.base = base.value().ref;
    rd.op = RemoteDeriveMsg::Op::kRequestRefine;
    rd.requester = p.pid;
    rd.imms = m.imms;
    rd.caps = std::move(caps).value();
    derive_at_owner(p, seq, std::move(rd));
    return;
  }
  if (!can_mutate_seat(addr())) {
    reply(p, seq, ErrorCode::kNotLeader);
    return;
  }
  ReplicatedOp op;
  op.kind = ReplicatedOp::Kind::kCreateRequestRoot;
  op.requester = p.pid;
  op.imms = m.imms;
  op.caps = std::move(caps).value();
  const ObjectTable::ApplyOutcome out = table_.apply(op);
  if (!out.status.ok()) {
    reply(p, seq, out.status.error());
    return;
  }
  op.result_index = out.produced_index;
  // The provider's endpoint cap is installed before the commit, because the root records the
  // cid it was installed under; a commit that fails takes the cap back.
  CapEntry endpoint_cap;
  endpoint_cap.ref = table_.ref_of(out.produced_index);
  endpoint_cap.kind = ObjectKind::kRequest;
  auto cid = p.caps.install(endpoint_cap);
  if (!cid.ok()) {
    log_mutation(addr(), std::move(op));  // applied all the same: keep the followers in step
    reply(p, seq, cid.error());
    return;
  }
  // Unreachable failure: apply just created out.produced_index as a live root Request, the
  // only kind of object set_endpoint_cid accepts.
  FRACTOS_CHECK(table_.set_endpoint_cid(out.produced_index, cid.value()).ok());
  op.cid = cid.value();  // followers apply the endpoint cid as part of the same entry
  const ProcessId pid = p.pid;
  commit_mutation(addr(), std::move(op), [this, pid, seq, endpoint = cid.value()](ErrorCode ec) {
    auto it = procs_.find(pid);
    if (it == procs_.end() || !it->second->alive) {
      return;
    }
    if (ec != ErrorCode::kOk) {
      (void)it->second->caps.remove(endpoint);  // a revoke broadcast may have purged it first
    }
    reply(*it->second, seq, ec, ec == ErrorCode::kOk ? endpoint : kInvalidCap);
  });
}

void Controller::sc_request_invoke(ProcState& p, uint64_t seq, RequestInvokeMsg& m) {
  // Admission gate first, before any capability resolution or delegation minting: a shed
  // request must cost the Controller nothing but this branch and the refusal reply — that is
  // what makes shedding a defense against overload rather than another queue.
  const bool gated = p.admission_limit != 0;
  if (gated) {
    if (p.admission_inflight >= p.admission_limit) {
      ++stats_.admission_shed;
      reply(p, seq, ErrorCode::kOverloaded);
      return;
    }
    ++p.admission_inflight;
    ++stats_.admission_admitted;
    if (p.admission_inflight > stats_.admission_max_inflight) {
      stats_.admission_max_inflight = p.admission_inflight;
    }
  }
  auto entry = p.caps.get(m.cid);
  if (!entry.ok()) {
    if (gated) {
      admission_release(p);
    }
    reply(p, seq, entry.error());
    return;
  }
  const CapEntry& e = entry.value();
  if (e.kind != ObjectKind::kRequest) {
    if (gated) {
      admission_release(p);
    }
    reply(p, seq, ErrorCode::kWrongObjectKind);
    return;
  }
  // Refuse up front when the owning Controller is unreachable: accepting and then silently
  // dropping the forward would leave the invoker's reply endpoint waiting forever. Checked
  // before make_wire_caps so no tracked delegation children are minted for a doomed invoke.
  // A replicated seat is reachable through its acting leader after the seat itself dies.
  if (e.ref.owner != addr()) {
    if (links_.live(route_owner(e.ref.owner)) == nullptr) {
      if (gated) {
        admission_release(p);
      }
      reply(p, seq, ErrorCode::kChannelClosed);
      return;
    }
  }
  auto caps = make_wire_caps(p, m.caps);
  if (!caps.ok()) {
    if (gated) {
      admission_release(p);
    }
    reply(p, seq, caps.error());
    return;
  }

  if (is_stale(e.ref)) {
    if (gated) {
      admission_release(p);
    }
    reply(p, seq, ErrorCode::kStaleCapability);
    return;
  }
  if (e.ref.owner == addr()) {
    ++stats_.invokes_local;
    const Duration extra = translation_extra_cost(e.ref.index);
    if (extra == Duration::zero()) {
      const ErrorCode status = deliver_by_ref(e.ref, m.imms, caps.value());
      if (gated && status != ErrorCode::kOk) {
        admission_release(p);
      }
      reply(p, seq, status);
      return;
    }
    // Depth-proportional pricing (translation-cache miss): pay the chain walk on exec_,
    // stamp it into the translation tax bucket, then deliver.
    const ObjectRef target = e.ref;
    const ProcessId pid = p.pid;
    charge(extra, [this, pid, seq, target, extra, imms = std::move(m.imms),
                   wcaps = std::move(caps).value()]() {
      static const NameId kXlateMiss = intern_name("xlate-miss");
      record_translation_span(extra, kXlateMiss);
      const ErrorCode status = deliver_by_ref(target, imms, wcaps);
      auto it = procs_.find(pid);
      if (it != procs_.end() && it->second->alive) {
        if (status != ErrorCode::kOk) {
          admission_release(*it->second);
        }
        reply(*it->second, seq, status);
      }
    });
    return;
  }
  ++stats_.invokes_forwarded;

  // Forward to the owning Controller; the invoke-time refinement and the delegated
  // capabilities ride along, so a pre-arranged RPC is exactly one cross-node message.
  RemoteInvokeMsg ri;
  ri.target = e.ref;
  ri.imms = std::move(m.imms);
  ri.caps = std::move(caps).value();
  ri.origin = addr();
  ri.invoke_id = next_op_id_++;
  pending_invokes_[ri.invoke_id] = p.pid;
  const ControllerAddr owner = route_owner(e.ref.owner);
  const Duration extra = config_.costs.net_serialize + cap_serialize_cost(ri.caps);
  reply(p, seq, ErrorCode::kOk);  // accepted; remote failures surface via the error channel
  charge(extra, [this, owner, extra, ri = std::move(ri)]() mutable {
    note_translation(extra);
    links_.send(owner, make_envelope(next_seq_++, std::move(ri)));
  });
}

void Controller::sc_cap_create_revtree(ProcState& p, uint64_t seq,
                                       const CapCreateRevtreeMsg& m) {
  auto entry = p.caps.get(m.cid);
  if (!entry.ok()) {
    reply(p, seq, entry.error());
    return;
  }
  RemoteDeriveMsg rd;
  rd.base = entry.value().ref;
  rd.op = RemoteDeriveMsg::Op::kRevtreeChild;
  rd.requester = p.pid;
  derive_at_owner(p, seq, std::move(rd));
}

void Controller::sc_cap_revoke(ProcState& p, uint64_t seq, const CapRevokeMsg& m) {
  auto entry = p.caps.get(m.cid);
  if (!entry.ok()) {
    reply(p, seq, entry.error());
    return;
  }
  RemoteDeriveMsg rd;
  rd.base = entry.value().ref;
  rd.op = RemoteDeriveMsg::Op::kRevoke;
  rd.requester = p.pid;
  derive_at_owner(p, seq, std::move(rd));
}

void Controller::sc_monitor(ProcState& p, uint64_t seq, const MonitorMsg& m,
                            bool delegate_mode) {
  auto entry = p.caps.get(m.cid);
  if (!entry.ok()) {
    reply(p, seq, entry.error());
    return;
  }
  RegisterMonitorMsg rm;
  rm.target = entry.value().ref;
  rm.delegate_mode = delegate_mode;
  rm.callback_id = m.callback_id;
  rm.subscriber_controller = addr();
  rm.subscriber_process = p.pid;
  const ProcessId pid = p.pid;
  if (rm.target.owner == addr()) {
    serve_mutation(rm.target, op_of(rm), [this, pid, seq](PeerReplyMsg r, bool /*settled*/) {
      reply_with_status(pid, seq, std::move(r));
    });
    return;
  }
  const uint64_t op_id = next_op_id_++;
  links_.call(route_owner(rm.target.owner), op_id, make_envelope(op_id, rm))
      .on_ready([this, pid, seq](Result<PeerReplyMsg>&& res) {
        reply_with_status(pid, seq, std::move(res));
      });
}

// --- delivery ------------------------------------------------------------------------------------

ErrorCode Controller::deliver_locally(ObjectIndex idx, const std::vector<ImmExtent>& extra_imms,
                                      const std::vector<WireCap>& extra_caps) {
  // deliver_locally is called with a ref whose owner is this Controller; the generation was
  // checked when building the ObjectRef view.
  const ObjectTable::ResolvedRequest* req = tcache_.enabled() ? tcache_.lookup(idx) : nullptr;
  ObjectTable::ResolvedRequest fresh;  // the resolution, when the cache did not serve it
  if (req == nullptr) {
    auto resolved = table_.resolve_request(idx, table_.reboot_count());
    if (!resolved.ok()) {
      return resolved.error();
    }
    fresh = std::move(resolved).value();
    if (tcache_.enabled()) {
      tcache_.put(idx, fresh);
    }
    req = &fresh;
  }
  if (Status s = check_imm_overlap(req->args.imms, extra_imms); !s.ok()) {
    return s.error();
  }
  auto pit = procs_.find(req->provider);
  if (pit == procs_.end() || !pit->second->alive) {
    return ErrorCode::kChannelClosed;
  }
  ProcState& provider = *pit->second;

  // The delivery is built straight from the resolution (cached or fresh) and the invoke's
  // own arguments, with no intermediate merged copy.
  DeliverRequestMsg d;
  d.endpoint_cid = req->endpoint_cid;
  d.imms.reserve(req->args.imms.size() + extra_imms.size());
  d.imms.insert(d.imms.end(), req->args.imms.begin(), req->args.imms.end());
  d.imms.insert(d.imms.end(), extra_imms.begin(), extra_imms.end());
  d.caps.reserve(req->args.caps.size() + extra_caps.size());
  for (const std::vector<WireCap>* caps : {&req->args.caps, &extra_caps}) {
    for (const WireCap& wc : *caps) {
      CapEntry entry{wc.ref, wc.kind, wc.perms, wc.mem, wc.tracked};
      auto cid = provider.caps.install(entry);
      if (!cid.ok()) {
        return cid.error();
      }
      d.caps.push_back(DeliveredCap{cid.value(), wc.kind, wc.perms, wc.mem.size});
    }
  }
  push_delivery(provider, std::move(d));
  return ErrorCode::kOk;
}

ErrorCode Controller::deliver_by_ref(const ObjectRef& target,
                                     const std::vector<ImmExtent>& extra_imms,
                                     const std::vector<WireCap>& extra_caps) {
  if (target.owner != addr()) {
    // Acting leader for a dead seat: authorize against the replica so revoked or stale
    // capabilities are refused with the real reason, but the provider process lived on the
    // seat's node — it cannot be reached from here.
    ObjectTable* t = serving_table(target.owner);
    if (t == nullptr) {
      return ErrorCode::kInvalidArgument;
    }
    if (target.reboot_count != t->reboot_count()) {
      return ErrorCode::kStaleCapability;
    }
    auto resolved = t->resolve_request(target.index, t->reboot_count());
    if (!resolved.ok()) {
      return resolved.error();
    }
    return ErrorCode::kChannelClosed;
  }
  if (!can_mutate_seat(addr())) {
    return ErrorCode::kNotLeader;  // deposed own seat: a successor may hold newer state
  }
  if (target.reboot_count != table_.reboot_count()) {
    return ErrorCode::kStaleCapability;
  }
  return deliver_locally(target.index, extra_imms, extra_caps);
}

void Controller::push_delivery(ProcState& p, DeliverRequestMsg msg) {
  // A delivery into an admission-gated process is the response leg of an admitted invoke
  // (one response per invoke — see set_admission_limit); release its slot.
  admission_release(p);
  ++stats_.deliveries;
  if (p.outstanding >= config_.congestion_window) {
    p.pending.push_back(std::move(msg));
    ++deliveries_queued_;
    return;
  }
  ++p.outstanding;
  p.chan->send(Traffic::kControl, make_envelope(next_seq_++, std::move(msg)));
}

void Controller::drain_deliveries(ProcState& p) {
  while (!p.pending.empty() && p.outstanding < config_.congestion_window) {
    DeliverRequestMsg msg = std::move(p.pending.front());
    p.pending.pop_front();
    ++p.outstanding;
    p.chan->send(Traffic::kControl, make_envelope(next_seq_++, std::move(msg)));
  }
}

// --- peer handlers --------------------------------------------------------------------------------

void Controller::peer_remote_invoke(ControllerAddr origin, const RemoteInvokeMsg& m) {
  ++stats_.invokes_received;
  Duration extra = Duration::zero();
  if (m.target.owner == addr() && m.target.reboot_count == table_.reboot_count()) {
    extra = translation_extra_cost(m.target.index);
  }
  if (extra == Duration::zero()) {
    const ErrorCode status = deliver_by_ref(m.target, m.imms, m.caps);
    if (status != ErrorCode::kOk) {
      RemoteInvokeErrorMsg err;
      err.invoke_id = m.invoke_id;
      err.status = status;
      links_.send(origin, make_envelope(next_seq_++, err));
    }
    return;
  }
  // Translation-cache miss on a forwarded invoke: the owner pays the chain walk too.
  charge(extra, [this, origin, extra, m]() {
    static const NameId kXlateMiss = intern_name("xlate-miss");
    record_translation_span(extra, kXlateMiss);
    const ErrorCode status = deliver_by_ref(m.target, m.imms, m.caps);
    if (status != ErrorCode::kOk) {
      RemoteInvokeErrorMsg err;
      err.invoke_id = m.invoke_id;
      err.status = status;
      links_.send(origin, make_envelope(next_seq_++, err));
    }
  });
}

void Controller::peer_remote_derive(ControllerAddr origin, const RemoteDeriveMsg& m) {
  exec_remote_derive(origin, m, [this, origin](const PeerReplyMsg& r) {
    links_.send(origin, make_envelope(next_seq_++, r));
  });
}

void Controller::peer_remote_derive_batch(ControllerAddr origin, const RemoteDeriveBatchMsg& m) {
  if (m.ops.empty()) {
    return;
  }
  // Per-op execution with per-op dedup, answered as one kPeerReplyBatch in op order — a
  // resent batch whose members already executed replays every reply from the cache. Members
  // of a replicated seat complete asynchronously (commit-gated), so the batch reply is sent
  // only once the last member's reply lands; without a group every member completes inline
  // and the wire behavior is byte-identical to the synchronous path.
  auto out = std::make_shared<PeerReplyBatchMsg>();
  out->replies.resize(m.ops.size());
  auto remaining = std::make_shared<size_t>(m.ops.size());
  for (size_t i = 0; i < m.ops.size(); ++i) {
    exec_remote_derive(origin, m.ops[i],
                       [this, origin, out, remaining, i](const PeerReplyMsg& r) {
                         out->replies[i] = r;
                         if (--*remaining == 0) {
                           links_.send(origin, make_envelope(next_seq_++, std::move(*out)));
                         }
                       });
  }
}

void Controller::exec_remote_derive(ControllerAddr origin, const RemoteDeriveMsg& m,
                                    std::function<void(const PeerReplyMsg&)> done) {
  // Idempotency: a resent request whose first copy already executed is answered from the
  // reply cache — revokes and derivations must not run twice.
  if (const PeerReplyMsg* cached = links_.find_completed(origin, m.op_id)) {
    done(*cached);
    return;
  }
  if (serve_mutation(m.base, op_of(m), answer_peer(origin, m.op_id, std::move(done)))) {
    ++stats_.derivations;
  }
}

Controller::OwnerDone Controller::answer_peer(ControllerAddr origin, uint64_t op_id,
                                              std::function<void(const PeerReplyMsg&)> send) {
  return [this, origin, op_id, send = std::move(send)](PeerReplyMsg r, bool settled) {
    r.op_id = op_id;
    if (settled) {
      links_.remember(origin, r);
    }
    send(r);
  };
}

bool Controller::serve_mutation(const ObjectRef& target, ReplicatedOp op, OwnerDone done) {
  const ControllerAddr seat = target.owner;
  PeerReplyMsg r;
  ObjectTable* t = serving_table(seat);
  if (t == nullptr) {
    // Not the owner and not its acting leader (kInvalidArgument, the pre-replication
    // answer), or a group member that cannot currently lead the seat (kNotLeader — the
    // requester should re-route once a new leader announces itself).
    r.status = (seat == addr() || repl_groups_.count(seat) != 0) ? ErrorCode::kNotLeader
                                                                 : ErrorCode::kInvalidArgument;
    done(std::move(r), /*settled=*/true);
    return false;
  }
  if (target.reboot_count != t->reboot_count()) {
    r.status = ErrorCode::kStaleCapability;
    done(std::move(r), /*settled=*/true);
    return false;
  }
  ObjectTable::ApplyOutcome out = t->apply(op);
  if (!out.status.ok()) {
    r.status = out.status.error();
    done(std::move(r), /*settled=*/true);
    return true;
  }
  op.result_index = out.produced_index;
  if (out.produced_index != 0) {
    r.result.ref = t->ref_of(out.produced_index);
    r.result.kind = t->kind_of(out.produced_index);
    if (r.result.kind == ObjectKind::kMemory) {
      auto resolved = t->resolve_memory(out.produced_index, t->reboot_count());
      // Unreachable failure: apply just minted produced_index as a live Memory object.
      FRACTOS_CHECK(resolved.ok());
      r.result.perms = resolved.value().perms;
      r.result.mem = resolved.value().desc;
    }
  }
  // Commit gate: the reply — and so the requester's install — and, for a revoke, the cleanup
  // broadcast and the monitor fires are released only once the entry is durable on a
  // majority. Without a group the continuation runs synchronously.
  const bool is_revoke = op.kind == ReplicatedOp::Kind::kRevoke;
  commit_mutation(seat, std::move(op),
                  [this, seat, is_revoke, r = std::move(r), revoked = std::move(out.revoked),
                   done = std::move(done)](ErrorCode ec) mutable {
                    if (ec != ErrorCode::kOk) {
                      // Unknown outcome (deposed mid-commit): not settled — the op may be
                      // retried at the next leader, and this member's eager state will be
                      // reset from a snapshot.
                      r.status = ec;
                      done(std::move(r), /*settled=*/false);
                      return;
                    }
                    if (is_revoke) {
                      apply_revoke_for(seat, revoked);
                    }
                    done(std::move(r), /*settled=*/true);
                  });
  return true;
}

void Controller::peer_revoke_broadcast(ControllerAddr origin, const RevokeBroadcastMsg& m) {
  for (auto& [pid, proc] : procs_) {
    proc->caps.purge_refs(m.revoked);
  }
  // Record the owner's generation (it is embedded in the refs) for eager stale checks. The
  // refs are keyed by their owner, not the broadcast's origin: a takeover leader broadcasts
  // on behalf of the dead seat.
  if (!m.revoked.empty()) {
    note_peer_generation(m.revoked.front().owner, m.revoked.front().reboot_count);
  }
  links_.send(origin, make_envelope(next_seq_++, RevokeAckMsg{m.cleanup_id}));
}

void Controller::peer_revoke_ack(const RevokeAckMsg& m) {
  auto it = pending_cleanups_.find(m.cleanup_id);
  if (it == pending_cleanups_.end()) {
    return;
  }
  if (--it->second.awaiting == 0) {
    // Every peer purged its references: the invalidated stubs can finally be reclaimed.
    const ControllerAddr seat = it->second.seat == 0 ? addr() : it->second.seat;
    if (ObjectTable* t = serving_table(seat); t != nullptr) {
      erase_revoked(seat, *t, it->second.objects);
    }
    pending_cleanups_.erase(it);
  }
}

void Controller::peer_register_monitor(ControllerAddr origin, uint64_t seq,
                                       const RegisterMonitorMsg& m) {
  auto send = [this, origin](const PeerReplyMsg& r) {
    links_.send(origin, make_envelope(next_seq_++, r));
  };
  // The subscriber keys this op by the envelope seq, which resends reuse — so it doubles as
  // the dedup key (double-registering a monitor would double its fire count).
  if (const PeerReplyMsg* cached = links_.find_completed(origin, seq)) {
    send(*cached);
    return;
  }
  serve_mutation(m.target, op_of(m), answer_peer(origin, seq, send));
}

void Controller::peer_monitor_fired(const MonitorFiredMsg& m) {
  auto it = procs_.find(m.process);
  if (it == procs_.end() || !it->second->alive) {
    return;
  }
  MonitorCallbackMsg cb;
  cb.callback_id = m.callback_id;
  cb.delegate_mode = m.delegate_mode;
  it->second->chan->send(Traffic::kControl, make_envelope(next_seq_++, cb));
}

void Controller::peer_invoke_error(const RemoteInvokeErrorMsg& m) {
  auto it = pending_invokes_.find(m.invoke_id);
  if (it == pending_invokes_.end()) {
    return;
  }
  const ProcessId pid = it->second;
  pending_invokes_.erase(it);
  auto pit = procs_.find(pid);
  if (pit == procs_.end() || !pit->second->alive) {
    return;
  }
  // A forwarded invoke that failed at the owner produces no response delivery; the error
  // channel is where its admission slot releases.
  admission_release(*pit->second);
  pit->second->chan->send(Traffic::kControl, make_envelope(next_seq_++, m));
}

// --- revocation plumbing --------------------------------------------------------------------------

void Controller::apply_revoke_for(ControllerAddr seat, const ObjectTable::RevokeResult& result,
                                  bool fire_monitors) {
  ++stats_.revocations;
  ObjectTable* t = serving_table(seat);
  if (t == nullptr) {
    return;  // lost the seat between revoke and cleanup; the next leader re-broadcasts
  }
  if (seat == addr() && tcache_.enabled()) {
    // Revocation-tree-aware invalidation: result.invalidated is exactly the revoked
    // subtree, so precisely the cached routes that just became unsafe are dropped.
    tcache_.invalidate(result.invalidated);
    if (!result.invalidated.empty()) {
      if (MetricsRegistry* m = net_->loop()->metrics()) {
        m->observe(revoke_subtree_key_, result.invalidated.size());
      }
    }
  }
  if (result.invalidated.empty()) {
    if (fire_monitors) {
      for (const auto& fire : result.fires) {
        dispatch_monitor_fire(fire);
      }
    }
    return;
  }
  RevokeBroadcastMsg bc;
  bc.cleanup_id = next_op_id_++;
  const uint64_t cleanup_id = bc.cleanup_id;
  bc.revoked.reserve(result.invalidated.size());
  for (ObjectIndex idx : result.invalidated) {
    bc.revoked.push_back(ObjectRef{seat, idx, t->reboot_count()});
  }
  // Local cleanup (the owner is also "a Controller" for the broadcast).
  for (auto& [pid, proc] : procs_) {
    proc->caps.purge_refs(bc.revoked);
  }
  // Cleanup broadcast to every peer — the prototype's simple algorithm ("the cleanup step of
  // capability revocation is based on a broadcast", Section 4). Off the critical path; the
  // invalidated stubs are erased only once every live peer has acknowledged (two-phase
  // cleanup — "after ensuring no other Controllers have capabilities referencing it").
  //
  // The body is encoded once; each peer's frame is that encoding under the peer's own seq.
  const size_t live_peers = links_.broadcast(encode_envelope(make_envelope(0, std::move(bc))));
  if (live_peers == 0) {
    erase_revoked(seat, *t, result.invalidated);
  } else {
    pending_cleanups_.emplace(cleanup_id, PendingCleanup{result.invalidated, live_peers, seat});
  }
  if (fire_monitors) {
    for (const auto& fire : result.fires) {
      dispatch_monitor_fire(fire);
    }
  }
}

void Controller::erase_revoked(ControllerAddr seat, ObjectTable& t,
                               const std::vector<ObjectIndex>& objects) {
  stats_.objects_reclaimed += t.erase_objects(objects);
  ReplicatedOp op;
  op.kind = ReplicatedOp::Kind::kEraseObjects;
  op.indices.assign(objects.begin(), objects.end());
  log_mutation(seat, std::move(op));
}

void Controller::dispatch_monitor_fire(const ObjectTable::MonitorFire& fire) {
  ++stats_.monitor_fires;
  if (fire.sub.controller == addr()) {
    auto it = procs_.find(fire.sub.process);
    if (it == procs_.end() || !it->second->alive) {
      return;
    }
    MonitorCallbackMsg cb;
    cb.callback_id = fire.sub.callback_id;
    cb.delegate_mode = fire.delegate_mode;
    it->second->chan->send(Traffic::kControl, make_envelope(next_seq_++, cb));
    return;
  }
  MonitorFiredMsg mf;
  mf.process = fire.sub.process;
  mf.callback_id = fire.sub.callback_id;
  mf.delegate_mode = fire.delegate_mode;
  links_.send(fire.sub.controller, make_envelope(next_seq_++, mf));
}

void Controller::on_peer_severed(ControllerAddr peer) {
  if (failed_) {
    return;  // fail() already completed everything with kChannelClosed
  }
  links_.on_severed(peer);
  // Replication: a dead leader's followers start a (rank-staggered) election immediately
  // rather than waiting out the lease.
  for (auto& [seat, group] : repl_groups_) {
    group->on_peer_severed(peer);
  }
}

// --- failure handling -----------------------------------------------------------------------------

void Controller::process_failed(ProcessId pid) {
  auto it = procs_.find(pid);
  if (it == procs_.end() || !it->second->alive) {
    return;
  }
  ProcState& p = *it->second;
  p.alive = false;
  ++stats_.process_failures;
  p.chan->sever();

  // Tracked (per-delegation) entries are revoked at their owners — this is what decrements
  // monitor_delegate counters for services whose client just died (Section 3.6).
  for (const CapEntry& entry : p.caps.all_entries()) {
    if (!entry.tracked) {
      continue;
    }
    if (entry.ref.owner == addr()) {
      if (entry.ref.reboot_count != table_.reboot_count()) {
        continue;
      }
      ReplicatedOp op;
      op.kind = ReplicatedOp::Kind::kRevoke;
      op.base = entry.ref.index;
      const ObjectTable::ApplyOutcome out = table_.apply(op);
      if (out.status.ok()) {
        log_mutation(addr(), std::move(op));
        apply_revoke(out.revoked);
      }
    } else {
      RemoteDeriveMsg rd;
      rd.op_id = next_op_id_++;
      rd.base = entry.ref;
      rd.op = RemoteDeriveMsg::Op::kRevoke;
      rd.requester = pid;
      // Fire-and-forget: the reply needs no action, so the future is dropped unconsumed.
      links_.call_derive(route_owner(entry.ref.owner), std::move(rd));
    }
  }
  // Everything the Process registered is invalidated.
  ReplicatedOp op;
  op.kind = ReplicatedOp::Kind::kRevokeAllOf;
  op.requester = pid;
  const ObjectTable::ApplyOutcome out = table_.apply(op);
  log_mutation(addr(), std::move(op));
  apply_revoke(out.revoked);
}

void Controller::fail() {
  if (failed_) {
    return;
  }
  failed_ = true;
  for (auto& [pid, proc] : procs_) {
    proc->chan->sever();
    proc->alive = false;
  }
  links_.sever_all();
  // Replication groups die with the host; their commit waiters complete through the error
  // channel (every local process is already marked dead, so the continuations no-op).
  for (auto& [seat, group] : repl_groups_) {
    group->stop(ErrorCode::kChannelClosed);
  }
  // Outstanding peer ops complete through the error channel rather than dangling; their
  // continuations bail out early because every local process is now marked dead.
  links_.fail_all(ErrorCode::kChannelClosed);
  pending_invokes_.clear();
}

void Controller::restart() {
  FRACTOS_CHECK(failed_);  // an operator call (System::restart_controller); not input
  // All Processes of a failed Controller are considered failed (Section 3.6); the reboot
  // counter bump makes every capability that references this Controller stale.
  procs_.clear();
  links_.reset();
  // Every cached translation references pre-reboot objects; the generation bump makes them
  // stale wholesale.
  tcache_.clear();
  table_.reboot();
  // Replication group membership does not survive a crash: a restarted member rejoins only
  // via an explicit enable_replication (it would need a snapshot catch-up anyway), and a
  // restarted seat serves its (empty, generation-bumped) table unreplicated.
  repl_groups_.clear();
  repl_routes_.clear();
  failed_ = false;
}

// --- replicated control plane ---------------------------------------------------------------------

void Controller::enable_replication(ControllerAddr seat, std::vector<ControllerAddr> members,
                                    uint32_t seat_reboot, ReplicationGroup::Params params) {
  // Deployment wiring (System::replicate_controller), not input: a peer cannot arm a group.
  FRACTOS_CHECK_MSG(repl_groups_.find(seat) == repl_groups_.end(),
                    "controller already joined a replication group for this seat");
  auto group =
      std::make_unique<ReplicationGroup>(this, seat, std::move(members), seat_reboot, params);
  ReplicationGroup* g = group.get();
  repl_groups_.emplace(seat, std::move(group));
  g->start();
}

ReplicationGroup* Controller::replication_group(ControllerAddr seat) {
  auto it = repl_groups_.find(seat);
  return it == repl_groups_.end() ? nullptr : it->second.get();
}

bool Controller::serves_seat(ControllerAddr seat) const {
  if (failed_) {
    return false;
  }
  if (seat == addr()) {
    return can_mutate_seat(seat);
  }
  auto it = repl_groups_.find(seat);
  return it != repl_groups_.end() && it->second->can_serve();
}

uint64_t Controller::seat_state_digest(ControllerAddr seat) const {
  if (seat == addr()) {
    return table_.digest();
  }
  auto it = repl_groups_.find(seat);
  return it == repl_groups_.end() ? 0 : it->second->state().digest();
}

ControllerAddr Controller::route_owner(ControllerAddr owner) const {
  if (owner == addr()) {
    return owner;
  }
  // A group member knows the leader first-hand; everyone else goes by the last announce.
  // Routing never turns a remote op into a self-op: if this member is itself the acting
  // leader, the op still targets the (possibly dead) owner and surfaces kChannelClosed —
  // serving one's own syscalls for a foreign seat is out of scope.
  auto git = repl_groups_.find(owner);
  if (git != repl_groups_.end()) {
    const ControllerAddr leader = git->second->known_leader();
    return leader != 0 && leader != addr() ? leader : owner;
  }
  auto rit = repl_routes_.find(owner);
  if (rit != repl_routes_.end() && rit->second.leader != 0 && rit->second.leader != addr()) {
    return rit->second.leader;
  }
  return owner;
}

ObjectTable* Controller::serving_table(ControllerAddr owner) {
  if (owner == addr()) {
    auto it = repl_groups_.find(owner);
    if (it != repl_groups_.end() && !it->second->can_serve()) {
      return nullptr;  // deposed own seat: a successor may hold newer committed state
    }
    return &table_;
  }
  auto it = repl_groups_.find(owner);
  if (it != repl_groups_.end() && it->second->can_serve()) {
    return &it->second->state();
  }
  return nullptr;
}

const ObjectTable* Controller::serving_table(ControllerAddr owner) const {
  return const_cast<Controller*>(this)->serving_table(owner);
}

bool Controller::can_mutate_seat(ControllerAddr seat) const {
  auto it = repl_groups_.find(seat);
  return it == repl_groups_.end() || it->second->can_serve();
}

void Controller::commit_mutation(ControllerAddr seat, ReplicatedOp op,
                                 std::function<void(ErrorCode)> done) {
  auto it = repl_groups_.find(seat);
  if (it == repl_groups_.end()) {
    done(ErrorCode::kOk);  // unreplicated: acknowledge inline (the pre-replication path)
    return;
  }
  it->second->replicate(std::move(op), std::move(done));
}

void Controller::log_mutation(ControllerAddr seat, ReplicatedOp op) {
  auto it = repl_groups_.find(seat);
  if (it == repl_groups_.end() || !it->second->is_leader()) {
    return;
  }
  it->second->replicate(std::move(op), [](ErrorCode) {});
}

void Controller::note_seat_leader(ControllerAddr seat, ControllerAddr leader, uint64_t term) {
  SeatRoute& route = repl_routes_[seat];
  if (term >= route.term) {
    route.leader = leader;
    route.term = term;
  }
}

void Controller::peer_leader_announce(const ReplLeaderAnnounceMsg& m) {
  note_seat_leader(m.seat, m.leader, m.term);
}

void Controller::on_seat_established(ControllerAddr seat) {
  auto it = repl_groups_.find(seat);
  if (it == repl_groups_.end()) {
    return;
  }
  ReplicationGroup& g = *it->second;
  // Tell every controller (group member or not) where the seat now lives, so invokes and
  // derives for its objects are routed here instead of at the dead leader.
  ReplLeaderAnnounceMsg ann;
  ann.seat = seat;
  ann.leader = addr();
  ann.term = g.term();
  links_.broadcast(encode_envelope(make_envelope(0, ann)));
  if (seat == addr()) {
    return;  // the seat establishing itself at start(): nothing to finish
  }
  // Finish what the dead leader started: every object that is invalidated but not yet
  // erased still needs its cleanup broadcast. Monitors are NOT re-fired — the dead leader
  // may already have dispatched them (at-most-once across failover).
  const std::vector<ObjectIndex> pending = g.state().invalidated_objects();
  if (!pending.empty()) {
    ObjectTable::RevokeResult result;
    result.invalidated = pending;
    apply_revoke_for(seat, result, /*fire_monitors=*/false);
  }
}

void Controller::handle_repl_msg(ControllerAddr origin, const Envelope& env) {
  if (failed_) {
    return;
  }
  ControllerAddr seat = kInvalidController;
  switch (env.type) {
    case MsgType::kReplAppend:
      seat = std::get<ReplAppendMsg>(env.body).seat;
      break;
    case MsgType::kReplAppendReply:
      seat = std::get<ReplAppendReplyMsg>(env.body).seat;
      break;
    case MsgType::kReplVote:
      seat = std::get<ReplVoteMsg>(env.body).seat;
      break;
    case MsgType::kReplVoteReply:
      seat = std::get<ReplVoteReplyMsg>(env.body).seat;
      break;
    case MsgType::kReplSnapshot:
      seat = std::get<ReplSnapshotMsg>(env.body).seat;
      break;
    default:
      return;
  }
  ReplicationGroup* g = replication_group(seat);
  if (g == nullptr) {
    return;  // not a member of this seat's group (stale or misdirected): drop
  }
  switch (env.type) {
    case MsgType::kReplAppend:
      g->on_append(origin, std::get<ReplAppendMsg>(env.body));
      break;
    case MsgType::kReplAppendReply:
      g->on_append_reply(origin, std::get<ReplAppendReplyMsg>(env.body));
      break;
    case MsgType::kReplVote:
      g->on_vote(origin, std::get<ReplVoteMsg>(env.body));
      break;
    case MsgType::kReplVoteReply:
      g->on_vote_reply(origin, std::get<ReplVoteReplyMsg>(env.body));
      break;
    case MsgType::kReplSnapshot:
      g->on_snapshot(origin, std::get<ReplSnapshotMsg>(env.body));
      break;
    default:
      break;
  }
}

}  // namespace fractos
