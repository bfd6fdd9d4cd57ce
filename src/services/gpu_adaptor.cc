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
  init_ep_ = sys->await_ok(proc_->serve({}, [this](Process::Received r) {
    handle_init(std::move(r));
  }));
}

void GpuAdaptor::register_kernel(const std::string& name, SimGpu::Kernel kernel) {
  kernel_registry_[name] = std::move(kernel);
}

void GpuAdaptor::handle_init(Process::Received r) {
  if (r.num_caps() < 1) {
    return;  // no reply channel: nothing to do
  }
  const CapId reply = r.cap(r.num_caps() - 1);
  const uint32_t ctx_id = next_ctx_++;

  std::vector<Future<Result<CapId>>> eps;
  eps.push_back(proc_->serve({}, [this, ctx_id](Process::Received rr) {
    handle_alloc(ctx_id, std::move(rr));
  }));
  eps.push_back(proc_->serve({}, [this, ctx_id](Process::Received rr) {
    handle_load(ctx_id, std::move(rr));
  }));
  eps.push_back(proc_->serve({}, [this, ctx_id](Process::Received rr) {
    handle_cleanup(ctx_id, std::move(rr));
  }));
  when_all(std::move(eps)).on_ready([this, ctx_id, reply](std::vector<Result<CapId>>&& cids) {
    for (const auto& c : cids) {
      if (!c.ok()) {
        proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
        return;
      }
    }
    Context ctx;
    ctx.gpu_ctx = gpu_->create_context();
    ctx.alloc_ep = cids[0].value();
    ctx.load_ep = cids[1].value();
    ctx.cleanup_ep = cids[2].value();
    contexts_[ctx_id] = ctx;
    proc_->request_invoke(reply, Process::Args{}
                                     .imm_u64(0, 0)
                                     .cap(ctx.alloc_ep)
                                     .cap(ctx.load_ep)
                                     .cap(ctx.cleanup_ep));
  });
}

void GpuAdaptor::handle_alloc(uint32_t ctx_id, Process::Received r) {
  auto it = contexts_.find(ctx_id);
  if (it == contexts_.end() || r.num_caps() < 1) {
    return;
  }
  const CapId reply = r.cap(r.num_caps() - 1);
  const uint64_t size = r.imm_u64(0).value_or(0);
  auto addr = gpu_->alloc(it->second.gpu_ctx, size);
  if (!addr.ok()) {
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
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
          proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
          return;
        }
        cit->second.handed_out.push_back(mem.value());
        cit->second.buffers.push_back(device_addr);
        proc_->request_invoke(reply,
                              Process::Args{}.imm_u64(0, 0).imm_u64(8, device_addr).cap(mem.value()));
      });
}

void GpuAdaptor::handle_load(uint32_t ctx_id, Process::Received r) {
  auto it = contexts_.find(ctx_id);
  if (it == contexts_.end() || r.num_caps() < 1) {
    return;
  }
  const CapId reply = r.cap(r.num_caps() - 1);
  auto name = r.imm_str(0);
  if (!name.has_value() || !kernel_registry_.contains(*name)) {
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    return;
  }
  const SimGpu::KernelId kid = gpu_->load_kernel(*name, kernel_registry_[*name]);
  proc_->serve({}, [this, ctx_id, kid](Process::Received rr) {
    handle_invoke(ctx_id, kid, std::move(rr));
  }).on_ready([this, ctx_id, reply](Result<CapId>&& ep) {
    auto cit = contexts_.find(ctx_id);
    if (!ep.ok() || cit == contexts_.end()) {
      proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
      return;
    }
    cit->second.handed_out.push_back(ep.value());
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 0).cap(ep.value()));
  });
}

void GpuAdaptor::handle_invoke(uint32_t ctx_id, SimGpu::KernelId kernel, Process::Received r) {
  (void)ctx_id;
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
      proc_->request_invoke(reqs.back(), Process::Args{}.imm_u64(0, 1));
    }
    return;
  }
  const CapId success = reqs[reqs.size() - 2];
  const CapId error = reqs[reqs.size() - 1];
  const std::vector<uint64_t> args = unpack_args(r.imms);

  gpu_->launch(kernel, args, [this, mems, success, error](Status s) {
    if (!s.ok()) {
      proc_->request_invoke(error, Process::Args{}.imm_u64(0, static_cast<uint64_t>(s.error())));
      return;
    }
    if (mems.empty()) {
      proc_->request_invoke(success);
      return;
    }
    // Result copy-back: chain the (src, dst) pairs, then signal success.
    auto copies = std::make_shared<std::vector<std::pair<CapId, CapId>>>();
    for (size_t i = 0; i + 1 < mems.size(); i += 2) {
      copies->emplace_back(mems[i], mems[i + 1]);
    }
    auto step = std::make_shared<std::function<void(size_t)>>();
    *step = [this, copies, success, error,
             weak_step = std::weak_ptr<std::function<void(size_t)>>(step)](size_t i) {
      auto step = weak_step.lock();
      if (!step) {
        return;
      }
      if (i == copies->size()) {
        proc_->request_invoke(success);
        return;
      }
      proc_->memory_copy((*copies)[i].first, (*copies)[i].second)
          .on_ready([this, step, i, error](Status cs) {
            if (!cs.ok()) {
              proc_->request_invoke(error,
                                    Process::Args{}.imm_u64(0, static_cast<uint64_t>(cs.error())));
              return;
            }
            (*step)(i + 1);
          });
    };
    (*step)(0);
  });
}

void GpuAdaptor::handle_cleanup(uint32_t ctx_id, Process::Received r) {
  auto it = contexts_.find(ctx_id);
  const CapId reply = r.num_caps() >= 1 ? r.cap(r.num_caps() - 1) : kInvalidCap;
  if (it == contexts_.end()) {
    if (reply != kInvalidCap) {
      proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    }
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
    if (reply != kInvalidCap) {
      proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 0));
    }
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
    a.imm(0, std::move(bytes));
  }
  return a;
}

Future<Result<GpuClient::Session>> GpuClient::init(Process& proc, CapId init_ep) {
  return proc.call(init_ep).then([](Result<Process::Received>&& r) -> Result<Session> {
    if (!r.ok()) {
      return r.error();
    }
    if (r.value().imm_u64(0).value_or(1) != 0 || r.value().num_caps() < 3) {
      return ErrorCode::kInternal;
    }
    Session s;
    s.alloc_ep = r.value().cap(0);
    s.load_ep = r.value().cap(1);
    s.cleanup_ep = r.value().cap(2);
    return s;
  });
}

Future<Result<GpuClient::Buffer>> GpuClient::alloc(Process& proc, const Session& s,
                                                   uint64_t size) {
  return proc.call(s.alloc_ep, Process::Args{}.imm_u64(0, size))
      .then([size](Result<Process::Received>&& r) -> Result<Buffer> {
        if (!r.ok()) {
          return r.error();
        }
        if (r.value().imm_u64(0).value_or(1) != 0 || r.value().num_caps() < 1) {
          return ErrorCode::kResourceExhausted;
        }
        Buffer b;
        b.mem = r.value().cap(0);
        b.device_addr = r.value().imm_u64(8).value_or(0);
        b.size = size;
        return b;
      });
}

Future<Result<CapId>> GpuClient::load(Process& proc, const Session& s, const std::string& name) {
  return proc.call(s.load_ep, Process::Args{}.imm_str(0, name))
      .then([](Result<Process::Received>&& r) -> Result<CapId> {
        if (!r.ok()) {
          return r.error();
        }
        if (r.value().imm_u64(0).value_or(1) != 0 || r.value().num_caps() < 1) {
          return ErrorCode::kNotFound;
        }
        return r.value().cap(0);
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
  return proc.call(s.cleanup_ep).then([](Result<Process::Received>&& r) -> Status {
    if (!r.ok()) {
      return r.error();
    }
    return r.value().imm_u64(0).value_or(1) == 0 ? ok_status()
                                                 : Status(ErrorCode::kInternal);
  });
}

}  // namespace fractos
