// Simulated GPU device (the K80 stand-in).
//
// The GPU owns a device-memory pool on its node — registered with the fabric, so RDMA can
// land directly in GPU memory (the GPUDirect-RDMA path the paper's single-transfer data path
// relies on). Kernels are registered C++ functors that REALLY execute over the pool bytes
// (integration tests verify end-to-end data, not just timing) and return their modeled
// compute duration; the engine serializes launches like a single CUDA stream.
//
// Timing model: launch overhead (driver + doorbell) + kernel compute, FIFO on the engine.

#ifndef SRC_DEVICES_GPU_H_
#define SRC_DEVICES_GPU_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/extent.h"
#include "src/base/result.h"
#include "src/fabric/network.h"
#include "src/sim/metrics.h"

namespace fractos {

class SimGpu {
 public:
  struct Params {
    uint64_t memory_bytes = 256ull << 20;
    // Kernel-launch overhead on the device side (driver processing, doorbell, scheduling).
    Duration launch_overhead = Duration::micros(8.0);
  };

  // A kernel executes over the device pool and returns its compute duration.
  using Kernel =
      std::function<Duration(PoolBytes& mem, const std::vector<uint64_t>& args)>;
  using ContextId = uint32_t;
  using KernelId = uint32_t;

  SimGpu(Network* net, uint32_t node) : SimGpu(net, node, Params{}) {}
  SimGpu(Network* net, uint32_t node, Params params);

  uint32_t node() const { return node_; }
  PoolId pool() const { return pool_; }
  const Params& params() const { return params_; }

  // --- contexts & memory -------------------------------------------------------------------

  ContextId create_context();
  // Frees all allocations of the context.
  Status destroy_context(ContextId ctx);
  Result<uint64_t> alloc(ContextId ctx, uint64_t size);
  Status free(ContextId ctx, uint64_t addr);
  uint64_t bytes_allocated() const { return memory_.bytes_in_use(); }

  // --- kernels -----------------------------------------------------------------------------

  KernelId load_kernel(const std::string& name, Kernel kernel);
  bool has_kernel(KernelId id) const { return kernels_.contains(id); }

  // Launches a kernel; `done` runs when it completes (FIFO with other launches).
  void launch(KernelId id, std::vector<uint64_t> args, std::function<void(Status)> done);

  // Engine occupancy, for utilization reporting in benches.
  Duration busy_time() const { return busy_; }
  uint64_t launches() const { return launches_; }
  // When every queued launch will have completed (cuCtxSynchronize semantics).
  Time engine_free() const { return engine_free_; }

 private:
  struct Allocation {
    uint64_t size = 0;
    ContextId ctx = 0;
  };

  // Zeroes an allocation's bytes and returns its extent to the allocator.
  void release(uint64_t addr, uint64_t size);

  Network* net_;
  uint32_t node_;
  Params params_;
  PoolId pool_;
  Time engine_free_;
  Duration busy_;
  uint64_t launches_ = 0;
  ContextId next_ctx_ = 1;
  KernelId next_kernel_ = 1;
  std::unordered_map<KernelId, Kernel> kernels_;
  std::unordered_map<ContextId, bool> contexts_;
  ExtentAllocator memory_;  // the device pool, 256-byte aligned (CUDA-like)
  std::map<uint64_t, Allocation> allocs_;  // addr -> allocation: which context owns it
  MetricsPublisher publisher_;  // gpu.launches; last, so it goes first
};

}  // namespace fractos

#endif  // SRC_DEVICES_GPU_H_
