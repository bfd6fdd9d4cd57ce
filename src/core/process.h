// The FractOS Process runtime: libfractos.
//
// Table 1 of the paper maps onto this API as follows:
//   cap_create_revtree(cid)        -> cap_create_revtree()
//   cap_revoke(cid)                -> cap_revoke()
//   memory_create(addr,size,perms) -> memory_create() / memory_create_in() (device pools)
//   memory_diminish(...)           -> memory_diminish()
//   memory_copy(cid1,cid2)         -> memory_copy() (with offset/length extensions)
//   request_create([cid],imms,caps)-> request_create() (root) / request_derive() (refining)
//   request_invoke(cid)            -> request_invoke() (with invoke-time refinement)
//   request_receive{...}           -> serve() / on_endpoint() handlers receiving `Received`
//   monitor_delegate / monitor_receive (Section 3.6) -> monitor_delegate() / monitor_receive()
//
// A Process is a user-level program (application or device adaptor — "FractOS does not
// distinguish between adaptors that expose hardware devices and regular CPU services",
// Section 3.2) connected to exactly one Controller through a request/response channel. All
// Table-1 syscalls are asynchronous: each call posts a message and returns a Future resolved
// by the matching reply.
//
// Serving side: a Process registers handlers per endpoint (per root Request it created);
// deliveries carry the request_receive descriptor of Table 1. The runtime acknowledges each
// delivery (congestion control) after the handler returns.
//
// Sync-RPC sugar: call() implements the paper's continuation pattern — "a client Process that
// invokes A can initialize B to contain a separate Request A' implemented by A itself" — by
// creating a one-shot reply endpoint, appending its capability as the LAST capability
// argument (the cross-service convention in this codebase), and resolving the returned future
// when the callee invokes it.

#ifndef SRC_CORE_PROCESS_H_
#define SRC_CORE_PROCESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cap/types.h"
#include "src/core/channel.h"
#include "src/futures/future.h"
#include "src/sim/intern.h"
#include "src/fabric/network.h"

namespace fractos {

class Process {
 public:
  // Argument builder for request_create / request_invoke.
  struct Args {
    std::vector<ImmExtent> imms;
    std::vector<CapId> caps;

    Args& imm(uint32_t offset, std::vector<uint8_t> bytes) {
      imms.push_back(ImmExtent{offset, std::move(bytes)});
      return *this;
    }
    Args& imm_u64(uint32_t offset, uint64_t v);
    Args& imm_str(uint32_t offset, const std::string& s);
    Args& cap(CapId cid) {
      caps.push_back(cid);
      return *this;
    }
  };

  // The request_receive descriptor as seen by a handler.
  struct Received {
    CapId endpoint = kInvalidCap;
    std::vector<ImmExtent> imms;
    std::vector<DeliveredCap> caps;

    // Immediate accessors (by argument-buffer offset).
    std::optional<uint64_t> imm_u64(uint32_t offset) const;
    std::optional<std::string> imm_str(uint32_t offset) const;  // whole extent at offset
    CapId cap(size_t i) const { return i < caps.size() ? caps[i].cid : kInvalidCap; }
    size_t num_caps() const { return caps.size(); }
  };
  using Handler = std::function<void(Received)>;

  Process(Network* net, ProcessId pid, std::string name, uint32_t node, PoolId heap_pool,
          Endpoint controller_ep);

  ProcessId pid() const { return pid_; }
  const std::string& name() const { return name_; }
  uint32_t node() const { return node_; }
  PoolId heap_pool() const { return heap_pool_; }
  Channel& channel() { return chan_; }
  bool failed() const { return failed_; }

  // --- Table 1 syscalls -----------------------------------------------------------------------

  Future<Status> null_op();
  Future<Result<CapId>> memory_create(uint64_t addr, uint64_t size, Perms perms);
  // For adaptors registering device memory pools on their node (e.g. GPU memory).
  Future<Result<CapId>> memory_create_in(PoolId pool, uint64_t addr, uint64_t size, Perms perms);
  Future<Result<CapId>> memory_diminish(CapId cid, uint64_t offset, uint64_t size,
                                        Perms drop_perms);
  // Copies `length` bytes (0 = the whole overlap) from src[src_off..] into dst[dst_off..].
  Future<Status> memory_copy(CapId src, CapId dst, uint64_t length = 0, uint64_t src_off = 0,
                             uint64_t dst_off = 0);
  Future<Result<CapId>> request_create(Args args = {});                // new root Request
  Future<Result<CapId>> request_derive(CapId base, Args args);         // derived Request
  Future<Status> request_invoke(CapId cid, Args invoke_args = {});
  Future<Result<CapId>> cap_create_revtree(CapId cid);
  Future<Status> cap_revoke(CapId cid);
  Future<Status> monitor_delegate(CapId cid, uint64_t callback_id);
  Future<Status> monitor_receive(CapId cid, uint64_t callback_id);

  // --- serving ---------------------------------------------------------------------------------

  // Registers the handler for deliveries to the given endpoint (a root Request cid this
  // Process created). Creating the endpoint and binding its handler in one step:
  Future<Result<CapId>> serve(Args initial_args, Handler handler);
  void on_endpoint(CapId endpoint_cid, Handler handler);
  void remove_endpoint(CapId endpoint_cid) { handlers_.erase(endpoint_cid); }
  void set_default_handler(Handler handler) { default_handler_ = std::move(handler); }
  void set_monitor_handler(std::function<void(uint64_t callback_id, bool delegate_mode)> h) {
    monitor_handler_ = std::move(h);
  }
  void set_invoke_error_handler(std::function<void(ErrorCode)> h) {
    invoke_error_handler_ = std::move(h);
  }

  // Sync-RPC sugar: invokes `target` with `args` plus a fresh one-shot reply endpoint
  // appended as the last capability argument; resolves with the delivery to that endpoint.
  Future<Result<Received>> call(CapId target, Args args = {});

  // --- local memory ----------------------------------------------------------------------------

  uint64_t heap_size() const;
  // Bump allocation out of the heap pool (the runtime's malloc stand-in).
  uint64_t alloc(uint64_t size, uint64_t align = 64);
  void write_mem(uint64_t addr, std::span<const uint8_t> bytes);
  std::vector<uint8_t> read_mem(uint64_t addr, uint64_t size) const;

  // Models application compute on the node's host core.
  Future<Unit> compute(Duration cost);

  // Crashes the Process: severs the channel, which its Controller translates into
  // revocations (Section 3.6).
  void fail();

 private:
  // The continuation of one in-flight syscall. It holds one Promise, so it is stored inline.
  using ReplyFn = BasicInlineFn<void(const SyscallReplyMsg&), 16, alignof(void*)>;
  struct PendingSyscall {
    ReplyFn reply;
    uint64_t span = 0;  // its open kSyscall span; 0 when tracing is off
  };

  void on_envelope(Envelope&& env);
  // However the channel severed: fails every pending syscall with kChannelClosed, in seq
  // order, and drops the endpoint handlers.
  void on_severed();
  void send_syscall(Envelope env, ReplyFn reply);
  Future<Result<CapId>> cap_syscall(Envelope env);
  Future<Status> status_syscall(Envelope env);

  Network* net_;
  ProcessId pid_;
  std::string name_;
  NameId name_id_ = kInvalidNameId;  // interned name_, the span actor
  uint32_t node_;
  PoolId heap_pool_;
  Channel chan_;
  uint64_t next_seq_ = 1;
  uint64_t next_alloc_ = 0;
  bool failed_ = false;
  // Every in-flight syscall, keyed by envelope seq; ordered, so a sever fails them in order.
  std::map<uint64_t, PendingSyscall> pending_;
  std::unordered_map<CapId, std::shared_ptr<const Handler>> handlers_;
  Handler default_handler_;
  std::function<void(uint64_t, bool)> monitor_handler_;
  std::function<void(ErrorCode)> invoke_error_handler_;
};

}  // namespace fractos

#endif  // SRC_CORE_PROCESS_H_
