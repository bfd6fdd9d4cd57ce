// rCUDA-style generic GPU remoting (the Fig. 9 / Fig. 12-13 baseline).
//
// "rCUDA accesses remote GPUs transparently by interposing CUDA driver calls" (Section 6.3):
// every driver call is marshalled, shipped to a daemon co-located with the GPU, executed
// there, and its result shipped back — one network round trip per call, with per-call
// marshalling/dispatch cost at both ends, and bulk data staged through the daemon's host
// memory. A kernel execution is therefore a multi-round-trip affair
// (memcpyHtoD + launch + synchronize + memcpyDtoH), whereas FractOS needs a single Request
// invocation (which is precisely the comparison the paper draws).

#ifndef SRC_BASELINES_RCUDA_H_
#define SRC_BASELINES_RCUDA_H_

#include <string>
#include <unordered_map>

#include "src/baselines/rpc.h"
#include "src/devices/gpu.h"

namespace fractos {

class RcudaDaemon {
 public:
  struct Params {
    // Marshalling + dispatch per intercepted driver call at the daemon. Published rCUDA
    // measurements report tens of microseconds per forwarded CUDA call even on fast fabrics
    // (and the paper's Fig. 9 shows rCUDA well above FractOS, sNIC deployment included);
    // 20 us sits in the middle of that range.
    Duration call_cost = Duration::micros(20.0);
    // Host-memory staging bandwidth for bulk transfers (extra copy vs. GPUDirect).
    double staging_bandwidth_bpns = 6.0;
  };

  RcudaDaemon(Network* net, SimGpu* gpu);
  RcudaDaemon(Network* net, SimGpu* gpu, Params params);

  uint32_t node() const { return gpu_->node(); }
  SimGpu& gpu() { return *gpu_; }
  // Registers a kernel by name (the daemon's module registry).
  void register_kernel(const std::string& name, SimGpu::Kernel kernel);

  RpcServer& rpc() { return rpc_; }

 private:
  // The GPU pool bytes [addr, addr + size), or nullptr when they are not all in the pool.
  uint8_t* gpu_bytes(uint64_t addr, uint64_t size);

  Network* net_;
  SimGpu* gpu_;
  ExecContext& cpu_;
  Params params_;
  SimGpu::ContextId ctx_ = 0;
  std::unordered_map<std::string, SimGpu::KernelId> functions_;
  RpcServer rpc_;
};

// Client-side interposed CUDA driver API. All calls are asynchronous futures; the underlying
// transport performs one round trip per call.
class RcudaClient {
 public:
  struct Params {
    // Client-side interposition/marshalling per call.
    Duration call_cost = Duration::micros(4.0);
  };

  RcudaClient(Network* net, uint32_t node, RcudaDaemon* daemon);
  RcudaClient(Network* net, uint32_t node, RcudaDaemon* daemon, Params params);

  Future<Result<uint64_t>> cu_mem_alloc(uint64_t size);
  Future<Status> cu_mem_free(uint64_t device_addr);
  Future<Status> cu_memcpy_htod(uint64_t device_addr, std::vector<uint8_t> data);
  Future<Result<std::vector<uint8_t>>> cu_memcpy_dtoh(uint64_t device_addr, uint64_t size);
  Future<Result<uint64_t>> cu_module_get_function(const std::string& name);
  // Asynchronous launch: returns when the daemon queued the kernel.
  Future<Status> cu_launch_kernel(uint64_t function, std::vector<uint64_t> args);
  // Blocks (the future) until all queued work completed.
  Future<Status> cu_ctx_synchronize();

  uint64_t calls_issued() const { return rpc_.calls_issued(); }

 private:
  RpcClient rpc_;
};

}  // namespace fractos

#endif  // SRC_BASELINES_RCUDA_H_
