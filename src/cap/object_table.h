// The per-Controller object table: the authoritative registry of Memory and Request objects.
//
// This implements the paper's distributed capability management protocol (Section 3.5):
//
//  * Objects "can only be used by contacting the owner of the object — the Controller with
//    which it is registered", so revocation is a LOCAL invalidation at the owner: immediate
//    and global, with no delegation tracking.
//  * Derivation (memory_diminish, Request refinement, cap_create_revtree) creates a child
//    object linked under its base; revoking any object invalidates its whole subtree
//    recursively. Delegation, by contrast, shares the object — that asymmetry is the paper's
//    optimization over classic per-delegation capability trees (compared in Fig. 7).
//  * cap_create_revtree() children are pure indirection objects (Redell's caretaker pattern):
//    same payload as the base, independently revocable.
//  * Stale capabilities from before a Controller failure are detected by comparing the
//    reboot counter embedded in every ObjectRef with the table's current counter.
//  * monitor_delegate / monitor_receive (Section 3.6) hang subscriptions off objects; revoke
//    reports which callbacks fired so the Controller can route monitor messages.
//
// Storage serves both the one table with "millions of live capabilities" (ROADMAP) and the
// hundreds of small per-Controller tables of a fat-tree run: objects live in slab arrays
// grouped into shards selected by a hash of the ObjectIndex. A shard's slabs grow
// geometrically from 16 to 1024 slots, so a shard's first use value-initialises ~1.5 KB rather
// than ~200 KB (256 Controllers of ~47 objects each: 1.7 GB peak RSS before, ~0.2 GB after).
// A slot holds only the hot fields (80 B): kind, packed flags, the tree links, the creator, and
// one payload shared by the memory and request kinds. Monitor state, which few objects ever
// carry, sits in a cold side table keyed by ObjectIndex.
// Slabs never move, so Object* stays valid across inserts (no rehash storms) and freed slots
// are recycled through a per-shard freelist. One DenseIndex maps each ObjectIndex to its slot:
// indices are minted in sequence, so 64 of them share a leaf (~5 B an object at 10^6) and a
// fill mostly hits the last-leaf cache. The derivation tree uses intrusive sibling links
// instead of per-node child vectors, so revocation touches exactly the revoked subtree and
// erasure unlinks in O(1) — no global scans to fix dangling links. Request argument blobs are
// content-interned (the way span names are NameId-interned in sim/trace), so N delegations of
// the same refinement share one allocation.

#ifndef SRC_CAP_OBJECT_TABLE_H_
#define SRC_CAP_OBJECT_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/cap/dense_index.h"
#include "src/cap/types.h"
#include "src/wire/message.h"

namespace fractos {

// Immediates + capabilities of a Request (initial args or one refinement layer).
struct RequestArgs {
  std::vector<ImmExtent> imms;
  std::vector<WireCap> caps;

  bool empty() const { return imms.empty() && caps.empty(); }
  FRACTOS_WIRE_FIELDS(imms, caps)
};

// A monitor subscription: who to notify (their Controller routes to the Process).
struct MonitorSub {
  ControllerAddr controller = kInvalidController;
  ProcessId process = kInvalidProcess;
  uint64_t callback_id = 0;
  FRACTOS_WIRE_FIELDS(controller, process, callback_id)
};

class ObjectTable {
 public:
  ObjectTable(ControllerAddr owner, uint32_t reboot_count = 1);

  ControllerAddr owner() const { return owner_; }
  uint32_t reboot_count() const { return reboot_count_; }

  // --- creation & derivation ---------------------------------------------------------------
  // Every create/derive records the `creator` Process, so that a Process failure can be
  // translated into revocation of everything it registered (Section 3.6).

  Result<ObjectIndex> create_memory(ProcessId creator, MemoryDesc desc, Perms perms);

  // memory_diminish: child object with a sub-extent and/or fewer permissions.
  Result<ObjectIndex> derive_memory(ProcessId creator, ObjectIndex base, uint64_t offset,
                                    uint64_t size, Perms drop_perms);

  // New root Request: `provider` (a Process managed by this Controller) serves it;
  // `endpoint_cid` is the provider's own cid, echoed back in deliveries for dispatch.
  Result<ObjectIndex> create_request_root(ProcessId provider, CapId endpoint_cid,
                                          RequestArgs args);

  // Fixes up the endpoint cid after the capability has been installed (the cid is only known
  // once the object exists).
  Status set_endpoint_cid(ObjectIndex idx, CapId endpoint_cid);

  // Derived Request. Derivation always happens at the base's owner ("Creating or revoking
  // capabilities requires a single message to the owning Controller"), so the base is always
  // in this same table and derivation chains never cross Controllers.
  Result<ObjectIndex> derive_request_local(ProcessId creator, ObjectIndex base,
                                           RequestArgs refinement);

  // cap_create_revtree: pure indirection child, independently revocable.
  Result<ObjectIndex> create_revtree_child(ProcessId creator, ObjectIndex base);

  // --- resolution (use-time validation) ----------------------------------------------------

  struct ResolvedMemory {
    MemoryDesc desc;
    Perms perms = Perms::kNone;
  };
  Result<ResolvedMemory> resolve_memory(ObjectIndex idx, uint32_t ref_reboot) const;

  struct ResolvedRequest {
    ProcessId provider = kInvalidProcess;
    CapId endpoint_cid = kInvalidCap;
    // Args merged base-first along the derivation chain.
    RequestArgs args;
  };
  Result<ResolvedRequest> resolve_request(ObjectIndex idx, uint32_t ref_reboot) const;

  // --- revocation --------------------------------------------------------------------------

  struct MonitorFire {
    MonitorSub sub;
    bool delegate_mode = false;  // true: monitor_delegate_cb, false: monitor_receive_cb
  };
  struct RevokeResult {
    std::vector<ObjectIndex> invalidated;  // the whole subtree, for the cleanup broadcast
    std::vector<MonitorFire> fires;
  };
  Result<RevokeResult> revoke(ObjectIndex idx, uint32_t ref_reboot);

  // Failure translation: revokes every live object created by `creator` (and, transitively,
  // everything derived from them).
  RevokeResult revoke_all_of(ProcessId creator);

  // Targeted cleanup: erases exactly these (invalidated) objects, once every peer has
  // acknowledged the revocation broadcast.
  size_t erase_objects(const std::vector<ObjectIndex>& indices);

  // --- monitors (Section 3.6) --------------------------------------------------------------

  // monitor_delegate: fire when the object's delegated children are all gone. The object must
  // not already have children (paper, footnote 1).
  Status monitor_delegate(ObjectIndex idx, uint32_t ref_reboot, MonitorSub sub);

  // monitor_receive: fire when the object is revoked.
  Status monitor_receive(ObjectIndex idx, uint32_t ref_reboot, MonitorSub sub);

  // Called by the Controller when delegating a capability to this object: if the object is
  // monitor_delegate'd, a tracked child object is created (and its index returned) so that
  // the delegatee's capability is independently revocable and counted. Otherwise returns
  // `idx` unchanged.
  Result<ObjectIndex> prepare_delegation(ObjectIndex idx);

  // --- the one mutation path (DESIGN.md §4h) ----------------------------------------------

  // Applies one capability mutation. The Controller mutates a table through this function
  // alone, set_endpoint_cid and erase_objects aside: the leader applies an op, stamps its
  // result_index from produced_index, and then commits or logs that same op; followers
  // replay committed entries through this same code. They converge structurally because
  // insert() assigns indices sequentially — replaying the leader's op stream in log order
  // re-derives the same indices. A follower's mismatch against op.result_index is reported
  // (not fatal) so the caller can count divergence. Monitor and revoke ops check no
  // generation: the caller checked the capability's against this table.
  struct ApplyOutcome {
    Status status = ok_status();
    ObjectIndex produced_index = 0;  // 0 when the op yields none
    bool diverged = false;           // produced_index != op.result_index (both nonzero)
    RevokeResult revoked;            // kRevoke / kRevokeAllOf: what this apply invalidated
  };
  ApplyOutcome apply(const ReplicatedOp& op);

  // Deterministic full-state serialization for follower catch-up (objects sorted by index,
  // every field verbatim). restore_snapshot replaces this table's entire contents, including
  // owner, reboot counter, and the next-index cursor. Blobs come from peers: one that is
  // truncated, names another owner, has kInvalidObject as its next-index cursor, counts more
  // objects than one shard can hold, holds index 0, kInvalidObject, an index at or past that
  // cursor, a duplicate index, an out-of-range enum or bool, a first child whose prev_sibling
  // is set, or a tree link that tree_links_valid() refuses is rejected with kInvalidArgument
  // and leaves the table empty.
  std::vector<uint8_t> serialize_snapshot() const;
  Status restore_snapshot(const std::vector<uint8_t>& blob);

  // Order-independent structural digest over the full table state. Equal digests across all
  // quorum members is the replica-audit invariant (tests/chaos_test.cc).
  uint64_t digest() const;

  // Objects that are invalidated but not yet erased, sorted by index. A takeover leader scans
  // these to re-issue revocation broadcasts the dead leader never finished.
  std::vector<ObjectIndex> invalidated_objects() const;

  // --- failure handling --------------------------------------------------------------------

  // Simulates a Controller crash+restart: every object is lost and the reboot counter bumps,
  // so all outstanding capabilities become stale.
  void reboot();

  // --- introspection -----------------------------------------------------------------------

  ObjectRef ref_of(ObjectIndex idx) const;
  bool is_invalidated(ObjectIndex idx) const;
  bool exists(ObjectIndex idx) const;
  size_t live_count() const { return live_; }
  size_t total_count() const { return total_; }
  ObjectKind kind_of(ObjectIndex idx) const;

  // Length of the derivation chain from `idx` up to its root (a root is depth 1). Returns 0
  // for unknown indices. The Controller uses this to price translation misses.
  size_t chain_depth(ObjectIndex idx) const;

  // Number of distinct interned argument blobs currently alive (empty args are represented by
  // nullptr and never hit the pool).
  size_t interned_args_count() const;

  // Total slots allocated across every shard's slabs, live or free.
  size_t slot_capacity() const;

  // Walks every object (live or invalidated) in deterministic order: shard 0..N, slabs in
  // allocation order, slots in slot order. `fn(ObjectIndex, const auto& object)`.
  template <typename Fn>
  void for_each_object(Fn&& fn) const {
    for (const Shard& shard : shards_) {
      for (size_t s = 0; s < shard.slabs.size(); ++s) {
        const Slot* slab = shard.slabs[s].get();
        const uint32_t slots = slab_slots(s);
        for (uint32_t i = 0; i < slots; ++i) {
          if (slab[i].idx != kInvalidObject) {
            fn(slab[i].idx, slab[i].obj);
          }
        }
      }
    }
  }

  static constexpr size_t kShardCount = 64;
  // A shard's slab s holds min(kFirstSlabSlots << s, kSlabSlots) slots. Slot id s << kSlabShift
  // | offset names offset `offset` in slab s.
  static constexpr size_t kFirstSlabSlots = 16;
  static constexpr size_t kSlabSlots = 1024;
  static constexpr uint32_t kSlabShift = 10;
  static_assert(kSlabSlots == size_t{1} << kSlabShift);
  // Slot ids are 32 bits and the all-ones id is DenseIndex::kAbsent, so a shard holds at most
  // kMaxShardSlabs slabs: the small ones, whose slots sum to kSlabSlots - kFirstSlabSlots,
  // then full ones.
  static constexpr uint32_t kMaxShardSlabs = (1u << (32 - kSlabShift)) - 1;
  static constexpr uint64_t kMaxShardSlots =
      uint64_t{kMaxShardSlabs - std::countr_zero(kSlabSlots / kFirstSlabSlots)} * kSlabSlots +
      (kSlabSlots - kFirstSlabSlots);

  // Bytes of one slab slot, index included.
  static constexpr size_t slot_bytes() { return sizeof(Slot); }

 private:
  // The Request payload; the Memory one is a bare MemoryDesc, the effective extent of the view.
  // An object is only ever one kind, so the two share storage in the hot slot below.
  struct RequestPayload {
    // This layer's refinement (roots: initial args); interned, nullptr means empty.
    std::shared_ptr<const RequestArgs> args;
    ProcessId provider = kInvalidProcess;  // roots only
  };

  // The hot slot: what resolution, derivation and revocation touch on every call. Monitor
  // state lives in the cold `monitors_` table (few objects are ever monitored). The flags are
  // bits of one byte, and the two narrow per-kind fields sit in the padding after it.
  struct ObjectHeader {
    ObjectKind kind = ObjectKind::kMemory;  // selects the live member of Object's payload
    bool invalidated : 1 = false;
    bool is_root : 1 = false;      // Request root
    bool indirection : 1 = false;  // revtree child: adds no args of its own
    bool monitored : 1 = false;    // has an entry in monitors_
    Perms perms = Perms::kNone;        // kMemory only: this view's permissions
    CapId endpoint_cid = kInvalidCap;  // kRequest roots only

    // Derivation/revocation tree (local to this table), as intrusive links. Children chain
    // from `first_child` along null-terminated `next_sibling` links; `prev_sibling` is
    // circular: the first child's names the last child, so appending at the tail is O(1)
    // without a last-child field. New children append at the tail, so traversal order
    // matches the creation order the old child vectors had. The snapshot and digest carry
    // the old, non-circular form with a last_child link (wire_links).
    ObjectIndex parent = kInvalidObject;
    ObjectIndex first_child = kInvalidObject;
    ObjectIndex prev_sibling = kInvalidObject;
    ObjectIndex next_sibling = kInvalidObject;

    // Creating Process, used to translate a Process failure into revocations.
    ProcessId creator = kInvalidProcess;
  };

  struct Object : ObjectHeader {
    union {
      MemoryDesc mem;      // kind == kMemory
      RequestPayload req;  // kind == kRequest
    };

    explicit Object(ObjectKind k = ObjectKind::kMemory);
    Object(Object&& o) noexcept;
    Object& operator=(Object&& o) noexcept;
    ~Object();

   private:
    // Move-constructs this object's payload (of kind `kind`) from `o`'s.
    void take_payload(Object& o);
  };

  // Monitor state (Section 3.6), keyed by ObjectIndex. Only ever point-looked-up: its
  // iteration order must never drive anything.
  struct MonitorState {
    bool delegator = false;  // monitor_delegate'd
    MonitorSub delegate_sub;
    uint32_t delegatee_count = 0;
    bool is_delegatee_child = false;  // decrements parent's counter on revoke
    std::vector<MonitorSub> receive_subs;
  };

  // One slab slot. `idx` doubles as the free marker (kInvalidObject = free); slots live inside
  // fixed arrays that never move, so &slot->obj is stable for the object's whole lifetime.
  struct Slot {
    ObjectIndex idx = kInvalidObject;
    Object obj;
  };

  struct Shard {
    std::vector<std::unique_ptr<Slot[]>> slabs;
    std::vector<uint32_t> free_slots;  // LIFO recycle list of slot ids
  };

  static uint64_t mix(ObjectIndex idx);
  Shard& shard_of(ObjectIndex idx) { return shards_[mix(idx) & (kShardCount - 1)]; }
  const Shard& shard_of(ObjectIndex idx) const { return shards_[mix(idx) & (kShardCount - 1)]; }

  static uint32_t slab_slots(size_t slab) {
    return static_cast<uint32_t>(
        std::min(kFirstSlabSlots << std::min<size_t>(slab, kSlabShift), kSlabSlots));
  }
  static Slot& slot_at(const Shard& shard, uint32_t slot_id) {
    return shard.slabs[slot_id >> kSlabShift][slot_id & (kSlabSlots - 1)];
  }
  // Mints the shard's next slab and pushes its slots onto the freelist.
  static void grow_slabs(Shard& shard);
  // Places `obj` under `idx` in the next free slot of `shard` (minting a slab if none is free).
  Slot& claim_slot(Shard& shard, ObjectIndex idx, Object obj);

  Slot* find_slot(ObjectIndex idx);
  const Slot* find_slot(ObjectIndex idx) const;
  // Drops every object, keeping owner, reboot counter and next-index cursor.
  void clear_objects();

  Result<const Object*> lookup(ObjectIndex idx, uint32_t ref_reboot) const;
  Object* mutable_lookup(ObjectIndex idx);
  const Object* find_object(ObjectIndex idx) const;
  ObjectIndex insert(Object obj);
  void insert_with_index(ObjectIndex idx, Object obj);  // snapshot restore path
  void link_child(ObjectIndex parent_idx, ObjectIndex child_idx);
  // True iff every object's parent is a restored object of a lower index (children are
  // minted after their parent, so this also rules out cycles), a parentless object has no
  // siblings, and each child list, walked from first_child along next_sibling, names this
  // object as parent, revisits no child, mirrors prev_sibling (the first child's naming the
  // list's last) and, with the others, lists every parented object exactly once.
  // Revocation and erasure walk these links.
  bool tree_links_valid() const;
  // The links as the snapshot and digest carry them: the child list's last child, and
  // prev_sibling with a first child's wrap-around link cleared.
  struct WireLinks {
    ObjectIndex last_child = kInvalidObject;
    ObjectIndex prev_sibling = kInvalidObject;
  };
  WireLinks wire_links(ObjectIndex idx, const Object& o) const;
  void invalidate_subtree(ObjectIndex idx, RevokeResult& out);
  bool erase_one(ObjectIndex idx);
  std::shared_ptr<const RequestArgs> intern_args(RequestArgs args);
  const RequestArgs& args_of(const Object& o) const;
  // The payload of `o` as the snapshot and digest see it: defaults for the other kind.
  static const MemoryDesc& mem_fields(const Object& o);
  static const RequestPayload& req_fields(const Object& o);
  // Monitor state of `o` (stored under `idx`); a default state if it has none.
  const MonitorState& monitor_fields(ObjectIndex idx, const Object& o) const;
  // Monitor state of `o`, created on first use.
  MonitorState& monitor_for(ObjectIndex idx, Object& o);

  ControllerAddr owner_;
  uint32_t reboot_count_;
  ObjectIndex next_index_ = 1;
  Shard shards_[kShardCount];
  DenseIndex index_;  // ObjectIndex -> slot id within shard_of(idx)
  size_t live_ = 0;
  size_t total_ = 0;
  std::unordered_map<ObjectIndex, MonitorState> monitors_;

  // Content-interning pool for argument blobs: hash -> weak entries. Objects hold the strong
  // references; a blob dies with its last object and the bucket is pruned on the next probe.
  std::unordered_map<uint64_t, std::vector<std::weak_ptr<const RequestArgs>>> args_pool_;
};

// Where an immediate extent lies: all that the overlap check reads of it.
struct ImmBounds {
  uint32_t offset = 0;
  uint32_t end = 0;
};

// Validates that refinement extents do not overlap already-written extents or each other
// (the paper's immutability rule: "Request arguments that have already been initialized
// cannot be changed"). `existing` is checked against `added`, and `added` against itself.
Status check_imm_overlap(const std::vector<ImmExtent>& existing,
                         const std::vector<ImmExtent>& added);
// The same check, given only where the existing extents lie.
Status check_imm_overlap_bounds(std::span<const ImmBounds> existing,
                                const std::vector<ImmExtent>& added);

}  // namespace fractos

#endif  // SRC_CAP_OBJECT_TABLE_H_
