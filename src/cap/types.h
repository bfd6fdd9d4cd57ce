// Core identifier types of the FractOS capability system.
//
// A capability, as in the paper (Section 3.5), "holds the address of the Controller it is
// registered with, and the respective object ID", plus the owner Controller's reboot counter
// (a Lamport-timestamp-like generation used to detect stale capabilities after a Controller
// failure). Processes never see ObjectRefs directly; they hold cids — indices into their
// Controller-maintained capability space, like POSIX file descriptors.

#ifndef SRC_CAP_TYPES_H_
#define SRC_CAP_TYPES_H_

#include <cstdint>

#include "src/wire/buffer.h"

namespace fractos {

// Network-unique address of a Controller instance.
using ControllerAddr = uint32_t;
inline constexpr ControllerAddr kInvalidController = 0xffffffffu;

// Cluster-unique Process identifier (assigned at spawn).
using ProcessId = uint64_t;
inline constexpr ProcessId kInvalidProcess = ~0ULL;

// Index of an object within its owner Controller's object table.
using ObjectIndex = uint64_t;
inline constexpr ObjectIndex kInvalidObject = ~0ULL;

// Capability id: index into a Process's capability space ("cid" in Table 1).
using CapId = uint32_t;
inline constexpr CapId kInvalidCap = 0xffffffffu;

enum class ObjectKind : uint8_t {
  kMemory = 0,
  kRequest = 1,
};
// The highest value a decoder accepts for the enum (src/wire/buffer.h).
constexpr ObjectKind enum_last(ObjectKind) { return ObjectKind::kRequest; }

// Memory permissions. Request capabilities always carry kInvoke implicitly.
enum class Perms : uint8_t {
  kNone = 0,
  kRead = 1,
  kWrite = 2,
  kReadWrite = 3,
};
// The highest value a decoder accepts for the enum (src/wire/buffer.h).
constexpr Perms enum_last(Perms) { return Perms::kReadWrite; }

inline Perms perms_intersect(Perms a, Perms b) {
  return static_cast<Perms>(static_cast<uint8_t>(a) & static_cast<uint8_t>(b));
}
inline Perms perms_drop(Perms p, Perms dropped) {
  return static_cast<Perms>(static_cast<uint8_t>(p) & ~static_cast<uint8_t>(dropped));
}
inline bool perms_allow(Perms have, Perms need) {
  return (static_cast<uint8_t>(have) & static_cast<uint8_t>(need)) ==
         static_cast<uint8_t>(need);
}

// Global reference to an object: owner Controller + table index + the owner's reboot counter
// at delegation time. Comparing reboot counters detects capabilities that outlived a
// Controller failure (Section 3.6, "failure translation").
struct ObjectRef {
  ControllerAddr owner = kInvalidController;
  ObjectIndex index = kInvalidObject;
  uint32_t reboot_count = 0;

  bool valid() const { return owner != kInvalidController && index != kInvalidObject; }
  FRACTOS_WIRE_FIELDS(owner, index, reboot_count)
  bool operator==(const ObjectRef&) const = default;
};

// Identifies a registered RDMA-accessible buffer: which node, which memory pool on that node
// (host heap of a Process, GPU memory, ...), and the extent within the pool. Memory
// capabilities carry this descriptor when delegated — the analogue of an RDMA rkey — so that
// third-party transfers need no extra resolution round trip (Section 3.5: revocation is still
// enforced at the owner, which in this model authorizes RDMA ops at the target node).
struct MemoryDesc {
  uint32_t node = 0;
  uint32_t pool = 0;
  uint64_t addr = 0;
  uint64_t size = 0;

  FRACTOS_WIRE_FIELDS(node, pool, addr, size)
  bool operator==(const MemoryDesc&) const = default;
};

}  // namespace fractos

#endif  // SRC_CAP_TYPES_H_
