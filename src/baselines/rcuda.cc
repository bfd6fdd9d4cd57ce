#include "src/baselines/rcuda.h"

#include <algorithm>
#include <utility>

#include "src/base/extent.h"

namespace fractos {

namespace {
enum CallOp : uint8_t {
  kMemAlloc = 0,
  kMemFree = 1,
  kMemcpyHtoD = 2,
  kMemcpyDtoH = 3,
  kGetFunction = 4,
  kLaunchKernel = 5,
  kSynchronize = 6,
  kReply = 7,
};

// One argument struct per driver call.
struct SizeArgs {  // cuMemAlloc
  uint64_t size = 0;
  FRACTOS_WIRE_FIELDS(size)
};
struct AddrArgs {  // cuMemFree
  uint64_t addr = 0;
  FRACTOS_WIRE_FIELDS(addr)
};
struct HtoDArgs {
  uint64_t addr = 0;
  std::vector<uint8_t> data;
  FRACTOS_WIRE_FIELDS(addr, data)
};
struct DtoHArgs {
  uint64_t addr = 0;
  uint64_t size = 0;
  FRACTOS_WIRE_FIELDS(addr, size)
};
struct NameArgs {  // cuModuleGetFunction
  std::string name;
  FRACTOS_WIRE_FIELDS(name)
};
struct LaunchArgs {
  uint64_t function = 0;
  std::vector<uint64_t> args;
  FRACTOS_WIRE_FIELDS(function, args)
};
struct NoArgs {  // cuCtxSynchronize
  FRACTOS_WIRE_FIELDS()
};
}  // namespace

RcudaDaemon::RcudaDaemon(Network* net, SimGpu* gpu) : RcudaDaemon(net, gpu, Params{}) {}

RcudaDaemon::RcudaDaemon(Network* net, SimGpu* gpu, Params params)
    : net_(net),
      gpu_(gpu),
      cpu_(net->node(gpu->node()).host()),
      params_(params),
      rpc_(net, Endpoint{gpu->node(), Loc::kHost}, kReply) {
  ctx_ = gpu_->create_context();
  using Reply = RpcServer::Reply;
  rpc_.on<SizeArgs>(kMemAlloc, [this](SizeArgs a, Reply reply) {
    cpu_.run(params_.call_cost, [this, a, reply]() {
      const Result<uint64_t> addr = gpu_->alloc(ctx_, a.size);
      if (!addr.ok()) {
        reply.status(addr.error());
        return;
      }
      reply.ok(addr.value());
    });
  });
  rpc_.on<AddrArgs>(kMemFree, [this](AddrArgs a, Reply reply) {
    cpu_.run(params_.call_cost,
            [this, a, reply]() { reply.status(gpu_->free(ctx_, a.addr).error()); });
  });
  rpc_.on<HtoDArgs>(kMemcpyHtoD, [this](HtoDArgs a, Reply reply) {
    // Staging copy through daemon host memory, then DMA into the GPU.
    const Duration staging =
        params_.call_cost + transfer_time(a.data.size(), params_.staging_bandwidth_bpns);
    cpu_.run(staging, [this, a = std::move(a), reply]() {
      uint8_t* dst = gpu_bytes(a.addr, a.data.size());
      if (dst == nullptr) {
        reply.status(ErrorCode::kOutOfRange);
        return;
      }
      std::copy(a.data.begin(), a.data.end(), dst);
      reply.status(ErrorCode::kOk);
    });
  });
  rpc_.on<DtoHArgs>(kMemcpyDtoH, [this](DtoHArgs a, Reply reply) {
    const Duration staging =
        params_.call_cost + transfer_time(a.size, params_.staging_bandwidth_bpns);
    cpu_.run(staging, [this, a, reply]() {
      const uint8_t* src = gpu_bytes(a.addr, a.size);
      if (src == nullptr) {
        reply.status(ErrorCode::kOutOfRange);
        return;
      }
      reply.send(Traffic::kData, ErrorCode::kOk, std::span<const uint8_t>(src, a.size));
    });
  });
  rpc_.on<NameArgs>(kGetFunction, [this](NameArgs a, Reply reply) {
    cpu_.run(params_.call_cost, [this, name = std::move(a.name), reply]() {
      auto it = functions_.find(name);
      if (it == functions_.end()) {
        reply.status(ErrorCode::kNotFound);
        return;
      }
      reply.ok(uint64_t{it->second});
    });
  });
  rpc_.on<LaunchArgs>(kLaunchKernel, [this](LaunchArgs a, Reply reply) {
    cpu_.run(params_.call_cost, [this, a = std::move(a), reply]() mutable {
      // Asynchronous semantics: the call returns once queued; completion is observed via
      // cuCtxSynchronize.
      gpu_->launch(static_cast<SimGpu::KernelId>(a.function), std::move(a.args), [](Status) {});
      reply.status(ErrorCode::kOk);
    });
  });
  rpc_.on<NoArgs>(kSynchronize, [this](NoArgs, Reply reply) {
    cpu_.run(params_.call_cost, [this, reply]() {
      // Completes once every queued kernel has drained from the engine.
      const Time done_at = max(net_->loop()->now(), gpu_->engine_free());
      net_->loop()->schedule_at(done_at, [reply]() { reply.status(ErrorCode::kOk); });
    });
  });
}

void RcudaDaemon::register_kernel(const std::string& name, SimGpu::Kernel kernel) {
  functions_[name] = gpu_->load_kernel(name, std::move(kernel));
}

uint8_t* RcudaDaemon::gpu_bytes(uint64_t addr, uint64_t size) {
  PoolBytes& mem = net_->node(node()).pool(gpu_->pool());
  if (!extent_within(addr, size, mem.size())) {
    return nullptr;
  }
  return mem.data() + addr;
}

RcudaClient::RcudaClient(Network* net, uint32_t node, RcudaDaemon* daemon)
    : RcudaClient(net, node, daemon, Params{}) {}

RcudaClient::RcudaClient(Network* net, uint32_t node, RcudaDaemon* daemon, Params params)
    // Client-side interposition cost, then the wire.
    : rpc_(net, Endpoint{node, Loc::kHost}, daemon->rpc(), &net->node(node).host(),
           params.call_cost) {}

Future<Result<uint64_t>> RcudaClient::cu_mem_alloc(uint64_t size) {
  return rpc_.call<uint64_t>(kMemAlloc, SizeArgs{size}, Traffic::kControl);
}

Future<Status> RcudaClient::cu_mem_free(uint64_t device_addr) {
  return rpc_.call(kMemFree, AddrArgs{device_addr}, Traffic::kControl);
}

Future<Status> RcudaClient::cu_memcpy_htod(uint64_t device_addr, std::vector<uint8_t> data) {
  return rpc_.call(kMemcpyHtoD, HtoDArgs{device_addr, std::move(data)}, Traffic::kData);
}

Future<Result<std::vector<uint8_t>>> RcudaClient::cu_memcpy_dtoh(uint64_t device_addr,
                                                                 uint64_t size) {
  return rpc_.call<std::vector<uint8_t>>(kMemcpyDtoH, DtoHArgs{device_addr, size},
                                         Traffic::kControl);
}

Future<Result<uint64_t>> RcudaClient::cu_module_get_function(const std::string& name) {
  return rpc_.call<uint64_t>(kGetFunction, NameArgs{name}, Traffic::kControl);
}

Future<Status> RcudaClient::cu_launch_kernel(uint64_t function, std::vector<uint64_t> args) {
  return rpc_.call(kLaunchKernel, LaunchArgs{function, std::move(args)}, Traffic::kControl);
}

Future<Status> RcudaClient::cu_ctx_synchronize() {
  return rpc_.call(kSynchronize, NoArgs{}, Traffic::kControl);
}

}  // namespace fractos
