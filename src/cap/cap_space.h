// The per-Process capability space: cid -> capability entry, maintained by the Process's
// Controller. "The references behind the capabilities are protected by FractOS, and Processes
// access them via indices in their capability space" (Section 3.1) — like POSIX fds.
//
// Memory entries cache the delegated MemoryDesc (the rkey analogue) so third-party transfers
// need no resolution round trip; validity is still enforced at the object's owner.
//
// Storage is sized for the Controller holding "millions of live capabilities" (Section 3.5).
// cids are minted sequentially and never reused, so entries live in fixed pages of
// kPageSlots indexed directly by cid: a lookup is two array reads, and a page is freed once
// every cid it covers has been minted and removed. Entries holding the same ObjectRef are
// chained through per-entry prev/next cid links, and a DenseIndex keyed by (owner and
// generation, object index) maps each ref to its chain head: refs from one owner arrive in
// index order, so they share leaves. install, remove and every entry purge_refs drops are
// O(1); nothing ever scans the other holders of a ref.

#ifndef SRC_CAP_CAP_SPACE_H_
#define SRC_CAP_CAP_SPACE_H_

#include <cstdint>
#include <vector>

#include "src/base/result.h"
#include "src/cap/dense_index.h"
#include "src/cap/types.h"

namespace fractos {

struct CapEntry {
  ObjectRef ref;
  ObjectKind kind = ObjectKind::kMemory;
  Perms perms = Perms::kNone;
  MemoryDesc mem;  // meaningful iff kind == kMemory
  // The owner created a per-delegation revocation-tree child for this entry
  // (monitor_delegate bookkeeping); revoke it at the owner if the holder fails.
  bool tracked = false;
};

class CapSpace {
 public:
  // `quota` caps the number of live entries ("can be capped via quotas", Section 4).
  explicit CapSpace(uint32_t quota = 1u << 20);

  Result<CapId> install(CapEntry entry);
  Result<CapEntry> get(CapId cid) const;
  Status remove(CapId cid);

  // Cleanup step of revocation: drops every entry referencing one of `revoked`.
  // Returns the number of entries purged.
  size_t purge_refs(const std::vector<ObjectRef>& revoked);

  // All live entries in ascending cid order (used when translating a Process failure into
  // revocations, which must happen in a defined order).
  std::vector<CapEntry> all_entries() const;

  size_t size() const { return live_; }
  uint32_t quota() const { return quota_; }

  // Pages currently holding entry storage (freed pages excluded).
  size_t resident_pages() const;

  static constexpr uint32_t kPageShift = 10;
  static constexpr uint32_t kPageSlots = 1u << kPageShift;

  // Bytes of one stored entry, chain links included.
  static constexpr size_t slot_bytes() { return sizeof(Slot); }

 private:
  // One entry, with the ObjectRef unpacked so that no padding sits between its fields.
  struct Slot {
    ObjectIndex index = kInvalidObject;
    ControllerAddr owner = kInvalidController;
    uint32_t reboot_count = 0;
    MemoryDesc mem;
    CapId prev = kInvalidCap;  // neighbours in the chain of entries holding the same ref
    CapId next = kInvalidCap;
    ObjectKind kind = ObjectKind::kMemory;
    Perms perms = Perms::kNone;
    bool tracked = false;
    bool live = false;

    ObjectRef ref() const { return ObjectRef{owner, index, reboot_count}; }
  };

  // The entries of cids [p << kPageShift, (p + 1) << kPageShift). `slots` holds one element per
  // cid minted so far in the page. The first page grows geometrically, so a Process with a
  // handful of capabilities does not pay for a whole page; later pages are reserved whole, so
  // a large space leaves no outgrown buffers behind in the heap.
  struct Page {
    std::vector<Slot> slots;
    uint32_t live = 0;
  };

  // The DenseIndex group of a ref: its owner and generation, so that refs differing only in
  // those never share a chain.
  static uint64_t ref_group(const ObjectRef& ref);

  Slot* find(CapId cid);
  const Slot* find(CapId cid) const;
  Slot& slot(CapId cid) { return pages_[cid >> kPageShift].slots[cid & (kPageSlots - 1)]; }
  // Marks a live entry dead and frees its page once the page is full and empty.
  void release(CapId cid, Slot& s);

  std::vector<Page> pages_;
  DenseIndex heads_;  // (ref_group, ref.index) -> first cid of the ref's chain
  CapId next_cid_ = 0;
  uint32_t quota_;
  size_t live_ = 0;
};

}  // namespace fractos

#endif  // SRC_CAP_CAP_SPACE_H_
