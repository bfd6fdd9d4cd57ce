// A data-center node: a host CPU, optionally a SmartNIC with its own (slower) cores, and a
// set of RDMA-registered memory pools.
//
// Memory pools hold real bytes: a Process's heap, a GPU's device memory, an NVMe adaptor's
// staging buffers are all pools, and RDMA operations move actual data between them. This lets
// integration tests verify end-to-end data integrity (checksums through the whole
// storage->GPU->application path), not just timing.

#ifndef SRC_FABRIC_NODE_H_
#define SRC_FABRIC_NODE_H_

#include <sys/mman.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/sim/exec_context.h"

namespace fractos {

// Where on a node an agent (Process or Controller) executes.
enum class Loc : uint8_t {
  kHost = 0,
  kSnic = 1,
};

struct Endpoint {
  uint32_t node = 0;
  Loc loc = Loc::kHost;

  bool operator==(const Endpoint&) const = default;
};

using PoolId = uint32_t;

// Allocator backing memory pools: a freshly registered pool is all-zeros without an explicit
// memset ever walking it, and the no-arg construct() keeps vector value-initialization from
// walking it either. A 1024-node cluster registers tens of GB of pool bytes (every GPU models
// 256 MB of device memory) of which a workload touches a few hundred MB; eager zeroing would
// materialize all of it in RSS. Every pool is an anonymous mapping, whose untouched pages stay
// copy-on-write zero pages. calloc gives that guarantee only for blocks the C library maps
// itself: a block recycled from the heap (the benches keep blocks below 256 MB there) is
// cleared with a memset that makes all of it resident.
template <typename T>
struct PoolAlloc {
  using value_type = T;
  PoolAlloc() = default;
  template <typename U>
  explicit PoolAlloc(const PoolAlloc<U>&) {}
  T* allocate(size_t n) {
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t n) { munmap(p, n * sizeof(T)); }
  template <typename U>
  void construct(U*) {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  bool operator==(const PoolAlloc&) const { return true; }
  bool operator!=(const PoolAlloc&) const { return false; }
};

// A pool's backing bytes. Identical to std::vector<uint8_t> semantically (zero-initialized,
// contiguous, sized), but untouched pages never hit RSS.
using PoolBytes = std::vector<uint8_t, PoolAlloc<uint8_t>>;

// The rkey carried by an RDMA operation: names the Memory object that authorizes the access
// (owner controller address, object index, reboot generation). The fabric treats it as
// opaque; the core layer's authorizer resolves it against the owning Controller's object
// table. This is the simulation analogue of NIC rkeys — registration programs them, revoking
// the object invalidates them, so revoked memory fails immediately with no critical-path
// round trips.
struct RdmaKey {
  uint32_t controller = 0xffffffffu;
  uint64_t object = ~0ULL;
  uint32_t generation = 0;
};

// Authorization hook for incoming one-sided RDMA, registered per node by the core layer.
using RdmaAuthorizer = std::function<Status(const RdmaKey& key, PoolId pool, uint64_t addr,
                                            uint64_t size, bool is_write)>;

class Node {
 public:
  Node(EventLoop* loop, uint32_t id, std::string name, bool with_snic);

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }

  ExecContext& host() { return host_; }
  bool has_snic() const { return snic_ != nullptr; }
  ExecContext& snic() {
    FRACTOS_CHECK(snic_ != nullptr);
    return *snic_;
  }
  ExecContext& context(Loc loc) { return loc == Loc::kHost ? host_ : snic(); }

  // Registers a new RDMA-accessible memory pool of `size` bytes, zero-initialized.
  PoolId add_pool(uint64_t size);
  bool has_pool(PoolId pool) const { return pool < pools_.size(); }
  PoolBytes& pool(PoolId id);
  const PoolBytes& pool(PoolId id) const;

  // Bounds check for an RDMA op against a pool.
  Status check_extent(PoolId pool, uint64_t addr, uint64_t size) const;

  void set_rdma_authorizer(RdmaAuthorizer authorizer) { authorizer_ = std::move(authorizer); }
  // Applies the authorizer (if any) after bounds-checking.
  Status authorize_rdma(const RdmaKey& key, PoolId pool, uint64_t addr, uint64_t size,
                        bool is_write) const;

  // Marks the node failed: RDMA targeting it fails, messages to/from it are dropped.
  void fail() { failed_ = true; }
  void recover() { failed_ = false; }
  bool failed() const { return failed_; }

 private:
  uint32_t id_;
  std::string name_;
  ExecContext host_;
  std::unique_ptr<ExecContext> snic_;
  std::vector<PoolBytes> pools_;
  RdmaAuthorizer authorizer_;
  bool failed_ = false;
};

}  // namespace fractos

#endif  // SRC_FABRIC_NODE_H_
