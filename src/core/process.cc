#include "src/core/process.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"
#include "src/base/extent.h"
#include "src/sim/span.h"

namespace fractos {

Process::Args& Process::Args::imm_u64(uint32_t offset, uint64_t v) {
  uint8_t bytes[8];
  for (size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  imms.push_back(ImmExtent{offset, SmallBytes(bytes, sizeof(bytes))});
  return *this;
}

Process::Args& Process::Args::imm_str(uint32_t offset, const std::string& s) {
  imms.push_back(
      ImmExtent{offset, SmallBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size())});
  return *this;
}

std::optional<uint64_t> Process::Received::imm_u64(uint32_t offset) const {
  // The 8 bytes at `offset`, if one extent holds all of them (extents do not overlap).
  for (const auto& e : imms) {
    if (offset >= e.offset && offset + 8 <= e.end()) {
      uint64_t v = 0;
      for (size_t i = 0; i < 8; ++i) {
        v |= static_cast<uint64_t>(e.bytes[offset - e.offset + i]) << (8 * i);
      }
      return v;
    }
  }
  return std::nullopt;
}

std::optional<std::string> Process::Received::imm_str(uint32_t offset) const {
  for (const auto& e : imms) {
    if (e.offset == offset) {
      return std::string(e.bytes.begin(), e.bytes.end());
    }
  }
  return std::nullopt;
}

Process::Process(Network* net, ProcessId pid, std::string name, uint32_t node, PoolId heap_pool,
                 Endpoint controller_ep)
    : net_(net),
      pid_(pid),
      name_(std::move(name)),
      node_(node),
      heap_pool_(heap_pool),
      chan_(net, Endpoint{node, Loc::kHost}) {
  (void)controller_ep;  // the System wires the channel to the Controller side
  name_id_ = intern_name(name_);
  chan_.set_handler([this](Envelope&& env) { on_envelope(std::move(env)); });
  chan_.set_severed_handler([this]() { on_severed(); });
}

// --- syscall plumbing ---------------------------------------------------------------------------

void Process::send_syscall(Envelope env, ReplyFn reply) {
  if (chan_.severed()) {
    // No Controller hears a severed channel (a failed Process's is severed too): the syscall
    // fails through the error channel at once, so failure-cleanup continuations can run.
    reply(SyscallReplyMsg{.call_seq = env.seq, .status = ErrorCode::kChannelClosed});
    return;
  }
  uint64_t span = 0;
  if (span_tracing_active()) {
    if (SpanTracer* t = net_->loop()->span_tracer()) {
      span =
          t->begin(name_id_, SpanKind::kSyscall, msg_type_span_name(env.type), net_->loop()->now());
    }
  }
  pending_.emplace_hint(pending_.end(), env.seq, PendingSyscall{std::move(reply), span});
  chan_.send(Traffic::kControl, env);
}

Future<Result<CapId>> Process::cap_syscall(Envelope env) {
  Promise<Result<CapId>> promise;
  send_syscall(std::move(env), [promise](const SyscallReplyMsg& r) {
    if (r.status == ErrorCode::kOk) {
      promise.set(r.cid);
    } else {
      promise.set(r.status);
    }
  });
  return promise.future();
}

Future<Status> Process::status_syscall(Envelope env) {
  Promise<Status> promise;
  send_syscall(std::move(env), [promise](const SyscallReplyMsg& r) {
    promise.set(r.status == ErrorCode::kOk ? ok_status() : Status(r.status));
  });
  return promise.future();
}

Future<Status> Process::null_op() {
  return status_syscall(make_envelope(next_seq_++, NullOpMsg{}));
}

Future<Result<CapId>> Process::memory_create(uint64_t addr, uint64_t size, Perms perms) {
  return memory_create_in(heap_pool_, addr, size, perms);
}

Future<Result<CapId>> Process::memory_create_in(PoolId pool, uint64_t addr, uint64_t size,
                                                Perms perms) {
  MemoryCreateMsg m;
  m.pool = pool;
  m.addr = addr;
  m.size = size;
  m.perms = perms;
  return cap_syscall(make_envelope(next_seq_++, m));
}

Future<Result<CapId>> Process::memory_diminish(CapId cid, uint64_t offset, uint64_t size,
                                               Perms drop_perms) {
  MemoryDiminishMsg m;
  m.cid = cid;
  m.offset = offset;
  m.size = size;
  m.drop_perms = drop_perms;
  return cap_syscall(make_envelope(next_seq_++, m));
}

Future<Status> Process::memory_copy(CapId src, CapId dst, uint64_t length, uint64_t src_off,
                                    uint64_t dst_off) {
  MemoryCopyMsg m;
  m.src = src;
  m.dst = dst;
  m.src_off = src_off;
  m.dst_off = dst_off;
  m.length = length;
  return status_syscall(make_envelope(next_seq_++, m));
}

Future<Result<CapId>> Process::request_create(Args args) {
  RequestCreateMsg m;
  m.has_base = false;
  m.imms = std::move(args.imms);
  m.caps = std::move(args.caps);
  return cap_syscall(make_envelope(next_seq_++, std::move(m)));
}

Future<Result<CapId>> Process::request_derive(CapId base, Args args) {
  RequestCreateMsg m;
  m.has_base = true;
  m.base = base;
  m.imms = std::move(args.imms);
  m.caps = std::move(args.caps);
  return cap_syscall(make_envelope(next_seq_++, std::move(m)));
}

Future<Status> Process::request_invoke(CapId cid, Args invoke_args) {
  RequestInvokeMsg m;
  m.cid = cid;
  m.imms = std::move(invoke_args.imms);
  m.caps = std::move(invoke_args.caps);
  return status_syscall(make_envelope(next_seq_++, std::move(m)));
}

Future<Result<CapId>> Process::cap_create_revtree(CapId cid) {
  return cap_syscall(make_envelope(next_seq_++, CapCreateRevtreeMsg{cid}));
}

Future<Status> Process::cap_revoke(CapId cid) {
  return status_syscall(make_envelope(next_seq_++, CapRevokeMsg{cid}));
}

Future<Status> Process::monitor_delegate(CapId cid, uint64_t callback_id) {
  return status_syscall(
      make_envelope(next_seq_++, MonitorMsg{cid, callback_id}, /*delegate_mode=*/true));
}

Future<Status> Process::monitor_receive(CapId cid, uint64_t callback_id) {
  return status_syscall(
      make_envelope(next_seq_++, MonitorMsg{cid, callback_id}, /*delegate_mode=*/false));
}

// --- serving --------------------------------------------------------------------------------------

Future<Result<CapId>> Process::serve(Args initial_args, Handler handler) {
  return request_create(std::move(initial_args))
      .then([this, handler = std::move(handler)](Result<CapId> cid) -> Result<CapId> {
        if (cid.ok()) {
          on_endpoint(cid.value(), handler);
        }
        return cid;
      });
}

void Process::on_endpoint(CapId endpoint_cid, Handler handler) {
  handlers_[endpoint_cid] = std::make_shared<const Handler>(std::move(handler));
}

Future<Result<Process::Received>> Process::call(CapId target, Args args) {
  Promise<Result<Received>> promise;
  request_create({}).then([this, target, args = std::move(args),
                           promise](Result<CapId> reply_ep) mutable {
    if (!reply_ep.ok()) {
      promise.set(reply_ep.error());
      return;
    }
    const CapId ep = reply_ep.value();
    on_endpoint(ep, [this, ep, promise](Received r) {
      handlers_.erase(ep);
      promise.set(std::move(r));
    });
    args.cap(ep);  // convention: the reply Request is the last capability argument
    request_invoke(target, std::move(args)).on_ready([this, ep, promise](Status s) {
      if (!s.ok()) {
        handlers_.erase(ep);  // a refused invoke brings no reply to wait for
        promise.set(s.error());
      }
    });
  });
  return promise.future();
}

// --- delivery / replies ------------------------------------------------------------------------

void Process::on_envelope(Envelope&& env) {
  switch (env.type) {
    case MsgType::kSyscallReply: {
      const auto& r = std::get<SyscallReplyMsg>(env.body);
      auto it = pending_.find(r.call_seq);
      // The Controller answers each syscall once, and the table empties only at the sever,
      // after which the channel delivers nothing: every reply finds its entry.
      FRACTOS_CHECK_MSG(it != pending_.end(), "reply for unknown syscall");
      PendingSyscall call = std::move(it->second);
      pending_.erase(it);
      if (call.span != 0) {
        if (SpanTracer* t = net_->loop()->span_tracer()) {
          t->end(call.span, net_->loop()->now());
        }
      }
      call.reply(r);
      break;
    }
    case MsgType::kDeliverRequest: {
      auto& d = std::get<DeliverRequestMsg>(env.body);
      Received r;
      r.endpoint = d.endpoint_cid;
      r.imms = std::move(d.imms);
      r.caps = std::move(d.caps);
      auto it = handlers_.find(r.endpoint);
      if (it != handlers_.end()) {
        // Hold a reference while it runs: it may erase itself (one-shot endpoints).
        const std::shared_ptr<const Handler> h = it->second;
        (*h)(std::move(r));
      } else if (default_handler_ != nullptr) {
        default_handler_(std::move(r));
      }
      {
        Envelope ack = make_envelope(next_seq_++, DeliverAckMsg{});
        if (span_tracing_active()) {
          // The trailing congestion-control ack is not on any request's critical path; detach
          // it from the ambient trace so it cannot extend a closed request span.
          SpanScope detach;
          chan_.send(Traffic::kControl, std::move(ack));
        } else {
          chan_.send(Traffic::kControl, std::move(ack));
        }
      }
      break;
    }
    case MsgType::kMonitorCallback: {
      const auto& m = std::get<MonitorCallbackMsg>(env.body);
      if (monitor_handler_ != nullptr) {
        monitor_handler_(m.callback_id, m.delegate_mode);
      }
      break;
    }
    case MsgType::kRemoteInvokeError: {
      const auto& m = std::get<RemoteInvokeErrorMsg>(env.body);
      if (invoke_error_handler_ != nullptr) {
        invoke_error_handler_(m.status);
      }
      break;
    }
    default:
      // The only sender is the Process's own Controller, which sends it these four types.
      FRACTOS_CHECK_MSG(false, "unexpected message type delivered to process");
  }
}

// --- local memory ---------------------------------------------------------------------------------

uint64_t Process::heap_size() const { return net_->node(node_).pool(heap_pool_).size(); }

// The local-memory calls are the Process's own API on its own heap, never wire input: their
// CHECKs catch a program bug, with range tests that cannot wrap.
uint64_t Process::alloc(uint64_t size, uint64_t align) {
  FRACTOS_CHECK(align > 0 && (align & (align - 1)) == 0);
  uint64_t addr = (next_alloc_ + align - 1) & ~(align - 1);
  FRACTOS_CHECK_MSG(extent_within(addr, size, heap_size()), "process heap exhausted");
  next_alloc_ = addr + size;
  return addr;
}

void Process::write_mem(uint64_t addr, std::span<const uint8_t> bytes) {
  auto& pool = net_->node(node_).pool(heap_pool_);
  FRACTOS_CHECK(extent_within(addr, bytes.size(), pool.size()));
  std::copy(bytes.begin(), bytes.end(), pool.begin() + static_cast<ptrdiff_t>(addr));
}

std::vector<uint8_t> Process::read_mem(uint64_t addr, uint64_t size) const {
  const auto& pool = net_->node(node_).pool(heap_pool_);
  FRACTOS_CHECK(extent_within(addr, size, pool.size()));
  return std::vector<uint8_t>(pool.begin() + static_cast<ptrdiff_t>(addr),
                              pool.begin() + static_cast<ptrdiff_t>(addr + size));
}

Future<Unit> Process::compute(Duration cost) {
  Promise<Unit> promise;
  net_->node(node_).host().run(cost, [promise]() { promise.set(Unit{}); });
  return promise.future();
}

void Process::on_severed() {
  // Taken whole first: a failed syscall's continuation may issue another, which fails at
  // once without touching the table.
  SpanTracer* t = net_->loop()->span_tracer();
  for (auto& [seq, call] : std::exchange(pending_, {})) {
    if (call.span != 0 && t != nullptr) {
      t->end_error(call.span, net_->loop()->now(), "channel-closed");
    }
    call.reply(SyscallReplyMsg{.call_seq = seq, .status = ErrorCode::kChannelClosed});
  }
  handlers_.clear();
}

void Process::fail() {
  failed_ = true;
  chan_.sever();  // the severed handler fails what waits
}

}  // namespace fractos
