// The GPU adaptor: exposes a disaggregated GPU as a FractOS service (Section 5).
//
// "The GPU adaptor runs on the host CPU, using the OS GPU driver, and offers several RPCs
// exposed through Requests: GPU context initialization, memory de/allocation, kernel loading,
// kernel invocation, and cleanup."
//
// Endpoints (immediates laid out and answered by the call convention of
// src/core/service_call.h):
//
//   init:     caps = [reply].             reply: caps = [alloc_ep, load_ep, cleanup_ep]
//   alloc:    SizeImms, caps = [reply].
//             reply: GpuAllocReply, caps = [Memory cap over the GPU buffer]
//   load:     NameImms, caps = [reply].  reply: caps = [kernel invoke endpoint]
//   invoke:   imms  = packed u64 kernel arguments (forwarded to the kernel, paper: "all
//             other immediate arguments are forwarded to the GPU kernel itself");
//             caps  = zero or one (src, dst) Memory pairs to copy after completion (the
//             result copy-back of the face-verification pipeline), then [success, error]
//             Requests ("the GPU-kernel invocation Requests expect two Request arguments
//             used to signal success/error of the kernel invocation"); the error one gets
//             the status (kInvalidArgument for an invoke without both of them).
//   cleanup:  caps = [reply]. Destroys the context, frees device memory, and REVOKES every
//             capability the context handed out (delegated copies die with them).

#ifndef SRC_SERVICES_GPU_ADAPTOR_H_
#define SRC_SERVICES_GPU_ADAPTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/service_call.h"
#include "src/core/system.h"
#include "src/devices/gpu.h"

namespace fractos {

struct GpuAllocReply {
  uint64_t device_addr = 0;
  FRACTOS_WIRE_FIELDS(device_addr)
};
class GpuAdaptor {
 public:
  // Spawns the adaptor Process on the GPU's node, attached to `controller`.
  GpuAdaptor(System* sys, Controller& controller, SimGpu* gpu);

  Process& process() { return *proc_; }
  CapId init_endpoint() const { return init_ep_; }
  SimGpu& gpu() { return *gpu_; }

  // Host-side kernel registry (stands for the CUDA module the driver would load).
  void register_kernel(const std::string& name, SimGpu::Kernel kernel);

  size_t num_contexts() const { return contexts_.size(); }

 private:
  struct Context {
    SimGpu::ContextId gpu_ctx = 0;
    CapId alloc_ep = kInvalidCap;
    CapId load_ep = kInvalidCap;
    CapId cleanup_ep = kInvalidCap;
    std::vector<CapId> handed_out;  // memory + kernel caps to revoke on cleanup
    std::vector<uint64_t> buffers;  // device addresses to free
  };

  void handle_init(CapId reply);
  void handle_alloc(uint32_t ctx_id, ServiceCall<SizeImms> c);
  void handle_load(uint32_t ctx_id, ServiceCall<NameImms> c);
  void handle_invoke(SimGpu::KernelId kernel, Process::Received r);
  // Copies the (src, dst) pairs of `mems` from index `i` on, in turn, then signals `success`.
  void copy_back(std::vector<CapId> mems, size_t i, CapId success, CapId error);
  void handle_cleanup(uint32_t ctx_id, CapId reply);

  System* sys_;
  Process* proc_;
  SimGpu* gpu_;
  CapId init_ep_ = kInvalidCap;
  std::unordered_map<std::string, SimGpu::Kernel> kernel_registry_;
  std::unordered_map<uint32_t, Context> contexts_;
  uint32_t next_ctx_ = 1;
};

// Client-side helpers wrapping the adaptor's wire conventions.
struct GpuClient {
  struct Session {
    CapId alloc_ep = kInvalidCap;
    CapId load_ep = kInvalidCap;
    CapId cleanup_ep = kInvalidCap;
  };
  struct Buffer {
    CapId mem = kInvalidCap;
    uint64_t device_addr = 0;
    uint64_t size = 0;
  };

  static Future<Result<Session>> init(Process& proc, CapId init_ep);
  static Future<Result<Buffer>> alloc(Process& proc, const Session& s, uint64_t size);
  static Future<Result<CapId>> load(Process& proc, const Session& s, const std::string& name);
  // Synchronous kernel run: creates one-shot success/error endpoints and resolves when one
  // fires. `copy` optionally appends a (src, dst) result copy-back pair.
  static Future<Status> run(Process& proc, CapId kernel_ep, const std::vector<uint64_t>& args,
                            CapId copy_src = kInvalidCap, CapId copy_dst = kInvalidCap);
  static Future<Status> cleanup(Process& proc, const Session& s);

  // Packs u64 kernel arguments into the invoke imm layout.
  static Process::Args pack_args(const std::vector<uint64_t>& args);
};

}  // namespace fractos

#endif  // SRC_SERVICES_GPU_ADAPTOR_H_
