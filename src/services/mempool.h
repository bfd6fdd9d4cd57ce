// The far-memory pool service: the lower tier of the disaggregated memory stack
// (DESIGN.md §4k). A memory node exports slices of a large RDMA-registered pool as named,
// capability-protected segments; compute-side clients attach by name and then access the
// segment with one-sided RDMA through the returned Memory capability — the service is on the
// control path only (attach/detach), never on the data path, exactly like the paper's
// adaptors keep Controllers out of bulk transfers.
//
// The one endpoint (immediates laid out and answered by the call convention of
// src/core/service_call.h):
//
//   attach: MemPoolAttachArgs, caps = [reply].
//           reply: MemPoolAttachReply, caps = [Memory capability over the segment].
//           Attaching an existing name returns the SAME segment (shared far memory by
//           naming); the requested size must then fit inside it, or the attach is refused
//           kAlreadyExists. A full pool refuses kResourceExhausted.
//
// Segments are placed first-fit, page-aligned, by an ExtentAllocator over the pool, and are
// zero-initialized (PoolBytes never touches RSS for untouched pages, so multi-GiB pools are
// cheap to model).

#ifndef SRC_SERVICES_MEMPOOL_H_
#define SRC_SERVICES_MEMPOOL_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/extent.h"
#include "src/core/service_call.h"
#include "src/core/system.h"

namespace fractos {

struct MemPoolAttachArgs {
  uint64_t size = 0;
  std::string name;
  FRACTOS_WIRE_FIELDS(size, name)
};
struct MemPoolAttachReply {
  uint64_t addr = 0;  // the segment's base within the pool
  uint64_t size = 0;
  FRACTOS_WIRE_FIELDS(addr, size)
};
class MemPoolService {
 public:
  // Spawns the pool Process on `node` and registers a fresh `capacity_bytes` RDMA pool there.
  static std::unique_ptr<MemPoolService> bootstrap(System* sys, uint32_t node,
                                                   Controller& controller,
                                                   uint64_t capacity_bytes);

  Process& process() { return *proc_; }
  CapId attach_endpoint() const { return attach_ep_; }
  uint32_t node() const { return node_; }
  PoolId pool() const { return pool_; }
  uint64_t capacity_bytes() const { return space_.capacity(); }
  uint64_t bytes_reserved() const { return space_.bytes_in_use(); }
  size_t num_segments() const { return segments_.size(); }

 private:
  // A name's segment, recorded when its range is allocated. Until its memory_create_in
  // resolves, `mem` is kInvalidCap and `waiters` holds the reply of every attach of the name,
  // the first included; all are answered when the creation resolves.
  struct Segment {
    uint64_t addr = 0;
    uint64_t size = 0;
    CapId mem = kInvalidCap;
    std::vector<CapId> waiters;
  };

  MemPoolService(System* sys, uint32_t node, Controller& controller, uint64_t capacity_bytes);
  void handle_attach(ServiceCall<MemPoolAttachArgs> c);

  System* sys_;
  Process* proc_;
  uint32_t node_;
  ExtentAllocator space_;  // the pool's bytes, one range per segment
  PoolId pool_ = 0;
  CapId attach_ep_ = kInvalidCap;
  std::unordered_map<std::string, Segment> segments_;
};

// One attached far-memory segment, from the client's point of view.
struct FarMemSegment {
  CapId mem = kInvalidCap;  // Memory capability in the CLIENT's capability space
  uint64_t addr = 0;        // base within the pool (matches the capability's extent)
  uint64_t size = 0;
};

// Client-side helper wrapping the attach wire convention.
struct MemPoolClient {
  static Future<Result<FarMemSegment>> attach(Process& proc, CapId attach_ep,
                                              const std::string& name, uint64_t size);
};

}  // namespace fractos

#endif  // SRC_SERVICES_MEMPOOL_H_
