#include "src/services/gpu_adaptor.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"
#include "src/services/completion.h"

namespace fractos {

namespace {

// Unpacks the invoke imm layout (extents concatenated in offset order) into u64 kernel args.
std::vector<uint64_t> unpack_args(const std::vector<ImmExtent>& imms) {
  std::vector<ImmExtent> sorted = imms;
  std::sort(sorted.begin(), sorted.end(),
            [](const ImmExtent& a, const ImmExtent& b) { return a.offset < b.offset; });
  std::vector<uint8_t> bytes;
  for (const auto& e : sorted) {
    bytes.insert(bytes.end(), e.bytes.begin(), e.bytes.end());
  }
  std::vector<uint64_t> args;
  for (size_t i = 0; i + 8 <= bytes.size(); i += 8) {
    uint64_t v = 0;
    for (size_t j = 0; j < 8; ++j) {
      v |= static_cast<uint64_t>(bytes[i + j]) << (8 * j);
    }
    args.push_back(v);
  }
  return args;
}

}  // namespace

GpuAdaptor::GpuAdaptor(System* sys, Controller& controller, SimGpu* gpu)
    : sys_(sys), gpu_(gpu) {
  proc_ = &sys->spawn("gpu-adaptor", gpu->node(), controller, 8ull << 20);
  init_ep_ = sys->await_ok(proc_->serve(
      {}, serve_calls<NoImms>(*proc_, [this](auto c) { handle_init(c.reply); })));
}

void GpuAdaptor::register_kernel(const std::string& name, SimGpu::Kernel kernel) {
  kernel_registry_[name] = std::move(kernel);
}

void GpuAdaptor::handle_init(CapId reply) {
  const uint32_t ctx_id = next_ctx_++;

  std::vector<Future<Result<CapId>>> eps;
  eps.push_back(proc_->serve({}, serve_calls<SizeImms>(*proc_, [this, ctx_id](auto c) {
    handle_alloc(ctx_id, std::move(c));
  })));
  eps.push_back(proc_->serve({}, serve_calls<NameImms>(*proc_, [this, ctx_id](auto c) {
    handle_load(ctx_id, std::move(c));
  })));
  eps.push_back(proc_->serve({}, serve_calls<NoImms>(*proc_, [this, ctx_id](auto c) {
    handle_cleanup(ctx_id, c.reply);
  })));
  when_all(std::move(eps)).on_ready([this, ctx_id, reply](std::vector<Result<CapId>>&& cids) {
    for (const auto& c : cids) {
      if (!c.ok()) {
        send_reply(*proc_, reply, c.error());
        return;
      }
    }
    Context ctx;
    ctx.gpu_ctx = gpu_->create_context();
    ctx.alloc_ep = cids[0].value();
    ctx.load_ep = cids[1].value();
    ctx.cleanup_ep = cids[2].value();
    contexts_[ctx_id] = ctx;
    send_reply(*proc_, reply, ErrorCode::kOk, NoImms{},
               {ctx.alloc_ep, ctx.load_ep, ctx.cleanup_ep});
  });
}

void GpuAdaptor::handle_alloc(uint32_t ctx_id, ServiceCall<SizeImms> c) {
  const CapId reply = c.reply;
  const uint64_t size = c.args.size;
  auto it = contexts_.find(ctx_id);
  if (it == contexts_.end()) {
    send_reply(*proc_, reply, ErrorCode::kRevoked);
    return;
  }
  auto addr = gpu_->alloc(it->second.gpu_ctx, size);
  if (!addr.ok()) {
    send_reply(*proc_, reply, addr.error());
    return;
  }
  const uint64_t device_addr = addr.value();
  proc_->memory_create_in(gpu_->pool(), device_addr, size, Perms::kReadWrite)
      .on_ready([this, ctx_id, reply, device_addr](Result<CapId>&& mem) {
        auto cit = contexts_.find(ctx_id);
        if (!mem.ok() || cit == contexts_.end()) {
          // A context cleaned up meanwhile has had all its allocations freed already.
          if (cit != contexts_.end()) {
            (void)gpu_->free(cit->second.gpu_ctx, device_addr);
          }
          send_reply(*proc_, reply, mem.ok() ? ErrorCode::kRevoked : mem.error());
          return;
        }
        cit->second.handed_out.push_back(mem.value());
        cit->second.buffers.push_back(device_addr);
        send_reply(*proc_, reply, ErrorCode::kOk, GpuAllocReply{device_addr}, {mem.value()});
      });
}

void GpuAdaptor::handle_load(uint32_t ctx_id, ServiceCall<NameImms> c) {
  const CapId reply = c.reply;
  if (!contexts_.contains(ctx_id)) {
    send_reply(*proc_, reply, ErrorCode::kRevoked);
    return;
  }
  const std::string& name = c.args.name;
  if (!kernel_registry_.contains(name)) {
    send_reply(*proc_, reply, ErrorCode::kNotFound);
    return;
  }
  const SimGpu::KernelId kid = gpu_->load_kernel(name, kernel_registry_[name]);
  proc_->serve({}, [this, kid](Process::Received rr) {
    handle_invoke(kid, std::move(rr));
  }).on_ready([this, ctx_id, reply](Result<CapId>&& ep) {
    auto cit = contexts_.find(ctx_id);
    if (!ep.ok() || cit == contexts_.end()) {
      send_reply(*proc_, reply, ep.ok() ? ErrorCode::kRevoked : ep.error());
      return;
    }
    cit->second.handed_out.push_back(ep.value());
    send_reply(*proc_, reply, ErrorCode::kOk, NoImms{}, {ep.value()});
  });
}

void GpuAdaptor::handle_invoke(SimGpu::KernelId kernel, Process::Received r) {
  // Parse capability arguments by kind: Memory caps form (src, dst) result copy-back pairs;
  // the last two Request caps are the success/error continuations.
  std::vector<CapId> mems;
  std::vector<CapId> reqs;
  for (const auto& c : r.caps) {
    if (c.kind == ObjectKind::kMemory) {
      mems.push_back(c.cid);
    } else {
      reqs.push_back(c.cid);
    }
  }
  if (reqs.size() < 2 || mems.size() % 2 != 0) {
    if (!reqs.empty()) {
      send_reply(*proc_, reqs.back(), ErrorCode::kInvalidArgument);
    }
    return;
  }
  const CapId success = reqs[reqs.size() - 2];
  const CapId error = reqs[reqs.size() - 1];
  gpu_->launch(kernel, unpack_args(r.imms),
               [this, mems = std::move(mems), success, error](Status s) mutable {
                 if (!s.ok()) {
                   send_reply(*proc_, error, s.error());
                   return;
                 }
                 copy_back(std::move(mems), 0, success, error);
               });
}

void GpuAdaptor::copy_back(std::vector<CapId> mems, size_t i, CapId success, CapId error) {
  if (i == mems.size()) {
    proc_->request_invoke(success);
    return;
  }
  // The copy is issued before the continuation below takes `mems` (C++17 call order).
  proc_->memory_copy(mems[i], mems[i + 1]).on_ready(
      [this, mems = std::move(mems), i, success, error](Status cs) mutable {
        if (!cs.ok()) {
          send_reply(*proc_, error, cs.error());
          return;
        }
        copy_back(std::move(mems), i + 2, success, error);
      });
}

void GpuAdaptor::handle_cleanup(uint32_t ctx_id, CapId reply) {
  auto it = contexts_.find(ctx_id);
  if (it == contexts_.end()) {
    send_reply(*proc_, reply, ErrorCode::kRevoked);
    return;
  }
  Context ctx = it->second;
  contexts_.erase(it);
  // Unreachable failure: ctx.gpu_ctx was created with the entry just erased, and only this
  // erase destroys it.
  FRACTOS_CHECK(gpu_->destroy_context(ctx.gpu_ctx).ok());

  // Revoke everything handed out plus the per-context endpoints: all delegated copies die.
  std::vector<Future<Status>> revokes;
  for (CapId cid : ctx.handed_out) {
    revokes.push_back(proc_->cap_revoke(cid));
  }
  revokes.push_back(proc_->cap_revoke(ctx.alloc_ep));
  revokes.push_back(proc_->cap_revoke(ctx.load_ep));
  proc_->remove_endpoint(ctx.alloc_ep);
  proc_->remove_endpoint(ctx.load_ep);
  proc_->remove_endpoint(ctx.cleanup_ep);
  when_all(std::move(revokes)).on_ready([this, ctx, reply](std::vector<Status>&&) {
    proc_->cap_revoke(ctx.cleanup_ep);
    send_reply(*proc_, reply, ErrorCode::kOk);
  });
}

// --- client helpers --------------------------------------------------------------------------

Process::Args GpuClient::pack_args(const std::vector<uint64_t>& args) {
  std::vector<uint8_t> bytes;
  bytes.reserve(args.size() * 8);
  for (uint64_t v : args) {
    for (size_t j = 0; j < 8; ++j) {
      bytes.push_back(static_cast<uint8_t>(v >> (8 * j)));
    }
  }
  Process::Args a;
  if (!bytes.empty()) {
    a.imm(0, std::move(bytes));  // kernel-argument ABI
  }
  return a;
}

Future<Result<GpuClient::Session>> GpuClient::init(Process& proc, CapId init_ep) {
  return call<NoImms>(proc, init_ep, NoImms{}, {},
                      [](NoImms&&, const std::vector<DeliveredCap>& caps) -> Result<Session> {
                        if (caps.size() < 3) {
                          return ErrorCode::kInternal;
                        }
                        return Session{caps[0].cid, caps[1].cid, caps[2].cid};
                      });
}

Future<Result<GpuClient::Buffer>> GpuClient::alloc(Process& proc, const Session& s,
                                                   uint64_t size) {
  return call<GpuAllocReply>(
      proc, s.alloc_ep, SizeImms{size}, {},
      [size](GpuAllocReply&& r, const std::vector<DeliveredCap>& caps) -> Result<Buffer> {
        if (caps.empty()) {
          return ErrorCode::kInternal;
        }
        return Buffer{caps[0].cid, r.device_addr, size};
      });
}

Future<Result<CapId>> GpuClient::load(Process& proc, const Session& s, const std::string& name) {
  return call<NoImms>(proc, s.load_ep, NameImms{name}, {},
                      [](NoImms&&, const std::vector<DeliveredCap>& caps) -> Result<CapId> {
                        if (caps.empty()) {
                          return ErrorCode::kInternal;
                        }
                        return caps[0].cid;
                      });
}

Future<Status> GpuClient::run(Process& proc, CapId kernel_ep, const std::vector<uint64_t>& args,
                              CapId copy_src, CapId copy_dst) {
  return Completion::once(proc, [&proc, kernel_ep, args, copy_src, copy_dst](CapId success,
                                                                             CapId error) {
    Process::Args invoke_args = pack_args(args);
    if (copy_src != kInvalidCap && copy_dst != kInvalidCap) {
      invoke_args.cap(copy_src).cap(copy_dst);
    }
    invoke_args.cap(success).cap(error);
    return proc.request_invoke(kernel_ep, std::move(invoke_args));
  });
}

Future<Status> GpuClient::cleanup(Process& proc, const Session& s) {
  return call(proc, s.cleanup_ep, NoImms{});
}

}  // namespace fractos
