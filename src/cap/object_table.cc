#include "src/cap/object_table.h"

#include <algorithm>
#include <new>
#include <optional>
#include <utility>

#include "src/base/assert.h"
#include "src/base/extent.h"

namespace fractos {

namespace {

// splitmix64 finalizer: sequential indices would otherwise pile into one shard.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t hash_args(const RequestArgs& args) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  fold(args.imms.size());
  for (const ImmExtent& imm : args.imms) {
    fold(imm.offset);
    fold(imm.bytes.size());
    for (uint8_t b : imm.bytes) {
      fold(b);
    }
  }
  fold(args.caps.size());
  for (const WireCap& cap : args.caps) {
    fold(cap.ref.owner);
    fold(cap.ref.index);
    fold(cap.ref.reboot_count);
    fold(static_cast<uint64_t>(cap.kind));
    fold(static_cast<uint64_t>(cap.perms));
    fold(cap.mem.node);
    fold(cap.mem.pool);
    fold(cap.mem.addr);
    fold(cap.mem.size);
    fold(cap.tracked ? 1 : 0);
  }
  return h;
}

const RequestArgs& empty_args() {
  static const RequestArgs kEmpty;
  return kEmpty;
}

// The snapshot blob: this header, then `count` SnapshotObjects in index order.
struct SnapshotHeader {
  ControllerAddr owner = kInvalidController;
  uint32_t reboot_count = 0;
  ObjectIndex next_index = 0;
  uint32_t count = 0;
  FRACTOS_WIRE_FIELDS(owner, reboot_count, next_index, count)
};

// One object as the snapshot carries it: every field of both payload kinds and of the monitor
// state, with the defaults of the kind (or state) the object does not have. The tree links keep
// their non-circular form: last_child is carried and a first child's prev_sibling is unset
// (ObjectTable::wire_links).
struct SnapshotObject {
  ObjectIndex idx = kInvalidObject;
  ObjectKind kind = ObjectKind::kMemory;
  bool invalidated = false;
  ObjectIndex parent = kInvalidObject;
  ObjectIndex first_child = kInvalidObject;
  ObjectIndex last_child = kInvalidObject;
  ObjectIndex prev_sibling = kInvalidObject;
  ObjectIndex next_sibling = kInvalidObject;
  MemoryDesc desc;
  Perms perms = Perms::kNone;
  bool is_root = false;
  ProcessId provider = kInvalidProcess;
  CapId endpoint_cid = kInvalidCap;
  std::optional<RequestArgs> args;
  bool indirection = false;
  ProcessId creator = kInvalidProcess;
  bool delegator = false;
  MonitorSub delegate_sub;
  uint32_t delegatee_count = 0;
  bool is_delegatee_child = false;
  std::vector<MonitorSub> receive_subs;
  FRACTOS_WIRE_FIELDS(idx, kind, invalidated, parent, first_child, last_child, prev_sibling,
                      next_sibling, desc, perms, is_root, provider, endpoint_cid, args,
                      indirection, creator, delegator, delegate_sub, delegatee_count,
                      is_delegatee_child, receive_subs)
};

}  // namespace

ObjectTable::ObjectTable(ControllerAddr owner, uint32_t reboot_count)
    : owner_(owner), reboot_count_(reboot_count) {}

uint64_t ObjectTable::mix(ObjectIndex idx) { return mix64(idx); }

// --- the hot slot's payload union -------------------------------------------------------------

ObjectTable::Object::Object(ObjectKind k) {
  kind = k;
  if (kind == ObjectKind::kRequest) {
    new (&req) RequestPayload();
  } else {
    new (&mem) MemoryDesc();
  }
}

ObjectTable::Object::Object(Object&& o) noexcept : ObjectHeader(o) { take_payload(o); }

ObjectTable::Object& ObjectTable::Object::operator=(Object&& o) noexcept {
  if (this != &o) {
    if (kind == ObjectKind::kRequest) {
      req.~RequestPayload();
    }
    static_cast<ObjectHeader&>(*this) = o;
    take_payload(o);
  }
  return *this;
}

ObjectTable::Object::~Object() {
  if (kind == ObjectKind::kRequest) {
    req.~RequestPayload();
  }
}

void ObjectTable::Object::take_payload(Object& o) {
  if (kind == ObjectKind::kRequest) {
    new (&req) RequestPayload(std::move(o.req));
  } else {
    new (&mem) MemoryDesc(o.mem);
  }
}

// --- shard plumbing ------------------------------------------------------------------------

ObjectTable::Slot* ObjectTable::find_slot(ObjectIndex idx) {
  return const_cast<Slot*>(static_cast<const ObjectTable*>(this)->find_slot(idx));
}

const ObjectTable::Slot* ObjectTable::find_slot(ObjectIndex idx) const {
  const uint32_t slot_id = index_.find(idx);
  return slot_id == DenseIndex::kAbsent ? nullptr : &slot_at(shard_of(idx), slot_id);
}

void ObjectTable::grow_slabs(Shard& shard) {
  const uint32_t slab = static_cast<uint32_t>(shard.slabs.size());
  const uint32_t slots = slab_slots(slab);
  // Unreachable from input: restore_snapshot refuses a blob of more than kMaxShardSlots
  // objects, and insert() would first need ~2^32 objects (~320 GB of slots) in one shard.
  FRACTOS_CHECK(slab < kMaxShardSlabs);
  shard.slabs.push_back(std::make_unique<Slot[]>(slots));
  // Newly minted slots enter the freelist back-to-front so allocation proceeds front-to-back
  // within the slab (deterministic iteration order).
  const uint32_t base = slab << kSlabShift;
  for (uint32_t i = 0; i < slots; ++i) {
    shard.free_slots.push_back(base + slots - 1 - i);
  }
}

ObjectTable::Slot& ObjectTable::claim_slot(Shard& shard, ObjectIndex idx, Object obj) {
  if (shard.free_slots.empty()) {
    grow_slabs(shard);
  }
  const uint32_t slot_id = shard.free_slots.back();
  shard.free_slots.pop_back();
  Slot& slot = slot_at(shard, slot_id);
  slot.idx = idx;
  slot.obj = std::move(obj);
  [[maybe_unused]] const uint32_t prior = index_.put(idx, slot_id);
  // insert() mints past every index present; restore_snapshot refuses a duplicate first.
  FRACTOS_DCHECK(prior == DenseIndex::kAbsent);
  ++total_;
  return slot;
}

ObjectIndex ObjectTable::insert(Object obj) {
  const ObjectIndex idx = next_index_++;
  claim_slot(shard_of(idx), idx, std::move(obj));
  ++live_;
  return idx;
}

void ObjectTable::insert_with_index(ObjectIndex idx, Object obj) {
  const Slot& slot = claim_slot(shard_of(idx), idx, std::move(obj));
  if (!slot.obj.invalidated) {
    ++live_;
  }
}

Result<const ObjectTable::Object*> ObjectTable::lookup(ObjectIndex idx,
                                                       uint32_t ref_reboot) const {
  if (ref_reboot != reboot_count_) {
    return ErrorCode::kStaleCapability;
  }
  const Slot* slot = find_slot(idx);
  if (slot == nullptr) {
    return ErrorCode::kInvalidCapability;
  }
  if (slot->obj.invalidated) {
    return ErrorCode::kRevoked;
  }
  return &slot->obj;
}

ObjectTable::Object* ObjectTable::mutable_lookup(ObjectIndex idx) {
  Slot* slot = find_slot(idx);
  return slot == nullptr ? nullptr : &slot->obj;
}

const ObjectTable::Object* ObjectTable::find_object(ObjectIndex idx) const {
  const Slot* slot = find_slot(idx);
  return slot == nullptr ? nullptr : &slot->obj;
}

void ObjectTable::link_child(ObjectIndex parent_idx, ObjectIndex child_idx) {
  Object* parent = mutable_lookup(parent_idx);
  Object* child = mutable_lookup(child_idx);
  // Callers pass a base they just looked up live and the child they just inserted.
  FRACTOS_DCHECK(parent != nullptr && child != nullptr);
  child->parent = parent_idx;
  child->next_sibling = kInvalidObject;
  if (parent->first_child == kInvalidObject) {
    parent->first_child = child_idx;
    child->prev_sibling = child_idx;  // an only child is its own last sibling
    return;
  }
  Object* first = mutable_lookup(parent->first_child);
  child->prev_sibling = first->prev_sibling;
  mutable_lookup(first->prev_sibling)->next_sibling = child_idx;
  first->prev_sibling = child_idx;
}

std::shared_ptr<const RequestArgs> ObjectTable::intern_args(RequestArgs args) {
  if (args.empty()) {
    return nullptr;
  }
  const uint64_t h = hash_args(args);
  std::vector<std::weak_ptr<const RequestArgs>>& bucket = args_pool_[h];
  // Prune expired entries opportunistically; blobs die with their last holding object.
  std::erase_if(bucket, [](const std::weak_ptr<const RequestArgs>& w) { return w.expired(); });
  for (const std::weak_ptr<const RequestArgs>& w : bucket) {
    if (std::shared_ptr<const RequestArgs> existing = w.lock()) {
      if (existing->imms == args.imms && existing->caps == args.caps) {
        return existing;
      }
    }
  }
  auto fresh = std::make_shared<const RequestArgs>(std::move(args));
  bucket.push_back(fresh);
  return fresh;
}

const RequestArgs& ObjectTable::args_of(const Object& o) const {
  return o.kind == ObjectKind::kRequest && o.req.args ? *o.req.args : empty_args();
}

const ObjectTable::MonitorState& ObjectTable::monitor_fields(ObjectIndex idx,
                                                             const Object& o) const {
  static const MonitorState kNone;
  return o.monitored ? monitors_.at(idx) : kNone;
}

ObjectTable::MonitorState& ObjectTable::monitor_for(ObjectIndex idx, Object& o) {
  o.monitored = true;
  return monitors_[idx];
}

// --- creation & derivation -----------------------------------------------------------------

Result<ObjectIndex> ObjectTable::create_memory(ProcessId creator, MemoryDesc desc, Perms perms) {
  if (desc.size == 0) {
    return ErrorCode::kInvalidArgument;
  }
  Object obj(ObjectKind::kMemory);
  obj.creator = creator;
  obj.mem = desc;
  obj.perms = perms;
  return insert(std::move(obj));
}

Result<ObjectIndex> ObjectTable::derive_memory(ProcessId creator, ObjectIndex base,
                                               uint64_t offset, uint64_t size,
                                               Perms drop_perms) {
  auto base_obj = lookup(base, reboot_count_);
  if (!base_obj.ok()) {
    return base_obj.error();
  }
  const Object& b = *base_obj.value();
  if (b.kind != ObjectKind::kMemory) {
    return ErrorCode::kWrongObjectKind;
  }
  if (!extent_within(offset, size, b.mem.size) || size == 0) {
    return ErrorCode::kOutOfRange;
  }
  Object obj(ObjectKind::kMemory);
  obj.creator = creator;
  obj.mem = b.mem;
  obj.mem.addr += offset;
  obj.mem.size = size;
  obj.perms = perms_drop(b.perms, drop_perms);
  const ObjectIndex idx = insert(std::move(obj));
  link_child(base, idx);
  return idx;
}

Result<ObjectIndex> ObjectTable::create_request_root(ProcessId provider, CapId endpoint_cid,
                                                     RequestArgs args) {
  if (provider == kInvalidProcess) {
    return ErrorCode::kInvalidArgument;
  }
  if (Status s = check_imm_overlap({}, args.imms); !s.ok()) {
    return s.error();
  }
  Object obj(ObjectKind::kRequest);
  obj.creator = provider;
  obj.is_root = true;
  obj.req.provider = provider;
  obj.endpoint_cid = endpoint_cid;
  obj.req.args = intern_args(std::move(args));
  return insert(std::move(obj));
}

Status ObjectTable::set_endpoint_cid(ObjectIndex idx, CapId endpoint_cid) {
  Object* o = mutable_lookup(idx);
  if (o == nullptr || o->kind != ObjectKind::kRequest || !o->is_root) {
    return ErrorCode::kInvalidArgument;
  }
  o->endpoint_cid = endpoint_cid;
  return ok_status();
}

Result<ObjectIndex> ObjectTable::derive_request_local(ProcessId creator, ObjectIndex base,
                                                      RequestArgs refinement) {
  auto base_obj = lookup(base, reboot_count_);
  if (!base_obj.ok()) {
    return base_obj.error();
  }
  if (base_obj.value()->kind != ObjectKind::kRequest) {
    return ErrorCode::kWrongObjectKind;
  }
  // Validate immutability locally against the bounds of the imm extents along the chain;
  // their bytes stay where they are. A short chain's bounds fit on the stack.
  auto for_each_layer = [this, base](auto&& fn) {
    for (ObjectIndex cur = base; cur != kInvalidObject;) {
      const Object* o = find_object(cur);
      // Parent links never dangle: erase_one orphans children, and restore checks every link.
      FRACTOS_CHECK(o != nullptr);
      fn(args_of(*o).imms);
      cur = o->parent;
    }
  };
  size_t n = 0;
  for_each_layer([&n](const std::vector<ImmExtent>& imms) { n += imms.size(); });
  constexpr size_t kInlineBounds = 8;
  ImmBounds inline_bounds[kInlineBounds];
  std::vector<ImmBounds> heap_bounds(n > kInlineBounds ? n : 0);
  ImmBounds* const bounds = n > kInlineBounds ? heap_bounds.data() : inline_bounds;
  size_t filled = 0;
  for_each_layer([bounds, &filled](const std::vector<ImmExtent>& imms) {
    for (const ImmExtent& e : imms) {
      bounds[filled++] = ImmBounds{e.offset, e.end()};
    }
  });
  if (Status s = check_imm_overlap_bounds({bounds, n}, refinement.imms); !s.ok()) {
    return s.error();
  }
  Object obj(ObjectKind::kRequest);
  obj.creator = creator;
  obj.req.args = intern_args(std::move(refinement));
  const ObjectIndex idx = insert(std::move(obj));
  link_child(base, idx);
  return idx;
}

Result<ObjectIndex> ObjectTable::create_revtree_child(ProcessId creator, ObjectIndex base) {
  auto base_obj = lookup(base, reboot_count_);
  if (!base_obj.ok()) {
    return base_obj.error();
  }
  const Object& b = *base_obj.value();
  Object obj(b.kind);
  obj.creator = creator;
  obj.indirection = true;
  if (b.kind == ObjectKind::kMemory) {
    obj.mem = b.mem;
    obj.perms = b.perms;
  }
  const ObjectIndex idx = insert(std::move(obj));
  link_child(base, idx);
  return idx;
}

// --- resolution ----------------------------------------------------------------------------

Result<ObjectTable::ResolvedMemory> ObjectTable::resolve_memory(ObjectIndex idx,
                                                                uint32_t ref_reboot) const {
  auto obj = lookup(idx, ref_reboot);
  if (!obj.ok()) {
    return obj.error();
  }
  const Object& o = *obj.value();
  if (o.kind != ObjectKind::kMemory) {
    return ErrorCode::kWrongObjectKind;
  }
  // Derived memory objects carry their effective extent, so no chain walk is needed; parents
  // were already checked live at derivation time and invalidate their subtree on revoke.
  return ResolvedMemory{o.mem, o.perms};
}

Result<ObjectTable::ResolvedRequest> ObjectTable::resolve_request(ObjectIndex idx,
                                                                  uint32_t ref_reboot) const {
  auto obj = lookup(idx, ref_reboot);
  if (!obj.ok()) {
    return obj.error();
  }
  if (obj.value()->kind != ObjectKind::kRequest) {
    return ErrorCode::kWrongObjectKind;
  }
  // Walk the local derivation chain to its head, collecting refinement layers.
  std::vector<const Object*> chain;
  ObjectIndex cur = idx;
  const Object* head = nullptr;
  while (cur != kInvalidObject) {
    const Object* o = find_object(cur);
    // Parent links never dangle: erase_one orphans children, and restore checks every link.
    FRACTOS_CHECK(o != nullptr);
    if (o->invalidated) {
      return ErrorCode::kRevoked;
    }
    chain.push_back(o);
    head = o;
    cur = o->parent;
  }

  ResolvedRequest out;
  if (head->kind != ObjectKind::kRequest || !head->is_root) {
    return ErrorCode::kInternal;  // derivation is always at the owner, so heads are roots
  }
  out.provider = head->req.provider;
  out.endpoint_cid = head->endpoint_cid;
  // Merge args base-first (chain was collected leaf-to-head).
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const RequestArgs& layer = args_of(**it);
    out.args.imms.insert(out.args.imms.end(), layer.imms.begin(), layer.imms.end());
    out.args.caps.insert(out.args.caps.end(), layer.caps.begin(), layer.caps.end());
  }
  if (Status s = check_imm_overlap({}, out.args.imms); !s.ok()) {
    return s.error();
  }
  return out;
}

// --- revocation ----------------------------------------------------------------------------

void ObjectTable::invalidate_subtree(ObjectIndex root, RevokeResult& out) {
  // Iterative pre-order walk. Children are pushed in reverse so they pop first-to-last,
  // which reproduces the old recursive traversal order exactly (monitor fire order is
  // observable through the Controller).
  std::vector<ObjectIndex> stack;
  std::vector<ObjectIndex> children;
  stack.push_back(root);
  while (!stack.empty()) {
    const ObjectIndex idx = stack.back();
    stack.pop_back();
    Object* o = mutable_lookup(idx);
    if (o == nullptr || o->invalidated) {
      continue;
    }
    o->invalidated = true;
    --live_;
    out.invalidated.push_back(idx);
    if (o->monitored) {
      MonitorState& m = monitors_.at(idx);
      for (const MonitorSub& sub : m.receive_subs) {
        out.fires.push_back(MonitorFire{sub, /*delegate_mode=*/false});
      }
      m.receive_subs.clear();
      // A delegated ("delegatee") child decrements its parent's outstanding-delegation
      // counter; at zero the parent's monitor_delegate callback fires (Section 3.6).
      if (m.is_delegatee_child && o->parent != kInvalidObject) {
        const Object* parent = find_object(o->parent);
        if (parent != nullptr && parent->monitored) {
          MonitorState& pm = monitors_.at(o->parent);
          if (pm.delegator && pm.delegatee_count > 0 && --pm.delegatee_count == 0 &&
              !parent->invalidated) {
            out.fires.push_back(MonitorFire{pm.delegate_sub, /*delegate_mode=*/true});
          }
        }
      }
    }
    children.clear();
    for (ObjectIndex c = o->first_child; c != kInvalidObject;) {
      children.push_back(c);
      const Object* child = find_object(c);
      // Child links never dangle: erase_one unlinks, and restore checks every link.
      FRACTOS_DCHECK(child != nullptr);
      c = child->next_sibling;
    }
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
}

Result<ObjectTable::RevokeResult> ObjectTable::revoke(ObjectIndex idx, uint32_t ref_reboot) {
  auto obj = lookup(idx, ref_reboot);
  if (!obj.ok()) {
    return obj.error();
  }
  RevokeResult out;
  invalidate_subtree(idx, out);
  return out;
}

ObjectTable::RevokeResult ObjectTable::revoke_all_of(ProcessId creator) {
  RevokeResult out;
  // Collect first: invalidate_subtree mutates the table while walking. Sorted ascending =
  // creation order, so the broadcast lists objects deterministically.
  std::vector<ObjectIndex> owned;
  for_each_object([&](ObjectIndex idx, const Object& obj) {
    if (obj.creator == creator && !obj.invalidated) {
      owned.push_back(idx);
    }
  });
  std::sort(owned.begin(), owned.end());
  for (ObjectIndex idx : owned) {
    invalidate_subtree(idx, out);
  }
  return out;
}

bool ObjectTable::erase_one(ObjectIndex idx) {
  Slot* slot = find_slot(idx);
  if (slot == nullptr || !slot->obj.invalidated) {
    return false;
  }
  Object& o = slot->obj;
  // Orphan surviving children: they keep their subtrees but lose the dangling parent link.
  for (ObjectIndex c = o.first_child; c != kInvalidObject;) {
    Object* child = mutable_lookup(c);
    // Child links never dangle: erase_one unlinks, and restore checks every link.
    FRACTOS_DCHECK(child != nullptr);
    const ObjectIndex next = child->next_sibling;
    child->parent = kInvalidObject;
    child->prev_sibling = kInvalidObject;
    child->next_sibling = kInvalidObject;
    c = next;
  }
  // Unlink from the parent's child list in O(1). The list's prev links are circular, so the
  // first child's names the last one.
  if (o.parent != kInvalidObject) {
    Object* parent = mutable_lookup(o.parent);
    if (parent != nullptr) {
      if (parent->first_child == idx) {
        parent->first_child = o.next_sibling;
      } else {
        mutable_lookup(o.prev_sibling)->next_sibling = o.next_sibling;
      }
      if (o.next_sibling != kInvalidObject) {
        mutable_lookup(o.next_sibling)->prev_sibling = o.prev_sibling;
      } else if (parent->first_child != kInvalidObject) {
        mutable_lookup(parent->first_child)->prev_sibling = o.prev_sibling;  // new last
      }
    }
  }
  if (o.monitored) {
    monitors_.erase(idx);
  }
  slot->idx = kInvalidObject;
  slot->obj = Object{};
  shard_of(idx).free_slots.push_back(index_.erase(idx));
  --total_;
  return true;
}

size_t ObjectTable::erase_objects(const std::vector<ObjectIndex>& indices) {
  size_t erased = 0;
  for (ObjectIndex idx : indices) {
    if (erase_one(idx)) {
      ++erased;
    }
  }
  return erased;
}

// --- monitors ------------------------------------------------------------------------------

Status ObjectTable::monitor_delegate(ObjectIndex idx, uint32_t ref_reboot, MonitorSub sub) {
  auto obj = lookup(idx, ref_reboot);
  if (!obj.ok()) {
    return obj.error();
  }
  Object* o = mutable_lookup(idx);
  if (o->first_child != kInvalidObject) {
    return ErrorCode::kInvalidArgument;  // paper footnote 1: must have no children yet
  }
  if (monitor_fields(idx, *o).delegator) {
    return ErrorCode::kAlreadyExists;
  }
  MonitorState& m = monitor_for(idx, *o);
  m.delegator = true;
  m.delegate_sub = sub;
  m.delegatee_count = 0;
  return ok_status();
}

Status ObjectTable::monitor_receive(ObjectIndex idx, uint32_t ref_reboot, MonitorSub sub) {
  auto obj = lookup(idx, ref_reboot);
  if (!obj.ok()) {
    return obj.error();
  }
  monitor_for(idx, *mutable_lookup(idx)).receive_subs.push_back(sub);
  return ok_status();
}

Result<ObjectIndex> ObjectTable::prepare_delegation(ObjectIndex idx) {
  auto obj = lookup(idx, reboot_count_);
  if (!obj.ok()) {
    return obj.error();
  }
  if (!monitor_fields(idx, *obj.value()).delegator) {
    return idx;
  }
  auto child = create_revtree_child(obj.value()->creator, idx);
  if (!child.ok()) {
    return child.error();
  }
  monitor_for(child.value(), *mutable_lookup(child.value())).is_delegatee_child = true;
  monitors_.at(idx).delegatee_count++;
  return child.value();
}

// --- replication ---------------------------------------------------------------------------

ObjectTable::ApplyOutcome ObjectTable::apply(const ReplicatedOp& op) {
  ApplyOutcome out;
  auto take_index = [&out, &op](Result<ObjectIndex> r) {
    if (!r.ok()) {
      out.status = r.error();
      return;
    }
    out.produced_index = r.value();
    out.diverged = op.result_index != 0 && op.result_index != out.produced_index;
  };
  const MonitorSub sub{op.sub_controller, op.sub_process, op.callback_id};
  switch (op.kind) {
    case ReplicatedOp::Kind::kNoop:
      break;
    case ReplicatedOp::Kind::kCreateMemory:
      take_index(create_memory(op.requester, op.mem, op.perms));
      break;
    case ReplicatedOp::Kind::kDeriveMemory:
      take_index(derive_memory(op.requester, op.base, op.offset, op.size, op.perms));
      break;
    case ReplicatedOp::Kind::kCreateRequestRoot:
      take_index(create_request_root(op.requester, op.cid, RequestArgs{op.imms, op.caps}));
      break;
    case ReplicatedOp::Kind::kSetEndpointCid:
      out.status = set_endpoint_cid(op.base, op.cid);
      break;
    case ReplicatedOp::Kind::kDeriveRequest:
      take_index(derive_request_local(op.requester, op.base, RequestArgs{op.imms, op.caps}));
      break;
    case ReplicatedOp::Kind::kRevtreeChild:
      take_index(create_revtree_child(op.requester, op.base));
      break;
    case ReplicatedOp::Kind::kPrepareDelegation:
      take_index(prepare_delegation(op.base));
      break;
    case ReplicatedOp::Kind::kMonitorDelegate:
      out.status = monitor_delegate(op.base, reboot_count_, sub);
      break;
    case ReplicatedOp::Kind::kMonitorReceive:
      out.status = monitor_receive(op.base, reboot_count_, sub);
      break;
    case ReplicatedOp::Kind::kRevoke: {
      auto r = revoke(op.base, reboot_count_);
      if (!r.ok()) {
        out.status = r.error();
      } else {
        out.revoked = std::move(r.value());
      }
      break;
    }
    case ReplicatedOp::Kind::kRevokeAllOf:
      out.revoked = revoke_all_of(op.requester);
      break;
    case ReplicatedOp::Kind::kEraseObjects:
      erase_objects(op.indices);
      break;
  }
  return out;
}

// The snapshot and digest carry every field of both payload kinds (and of the monitor state),
// with the defaults of the kind an object is not, exactly as when every object held all of them.
const MemoryDesc& ObjectTable::mem_fields(const Object& o) {
  static const MemoryDesc kNone;
  return o.kind == ObjectKind::kMemory ? o.mem : kNone;
}

const ObjectTable::RequestPayload& ObjectTable::req_fields(const Object& o) {
  static const RequestPayload kNone;
  return o.kind == ObjectKind::kRequest ? o.req : kNone;
}

ObjectTable::WireLinks ObjectTable::wire_links(ObjectIndex idx, const Object& o) const {
  WireLinks out;
  if (o.first_child != kInvalidObject) {
    out.last_child = find_object(o.first_child)->prev_sibling;
  }
  if (o.parent != kInvalidObject && find_object(o.parent)->first_child != idx) {
    out.prev_sibling = o.prev_sibling;
  }
  return out;
}

std::vector<uint8_t> ObjectTable::serialize_snapshot() const {
  std::vector<std::pair<ObjectIndex, const Object*>> objs;
  objs.reserve(total_);
  for_each_object(
      [&objs](ObjectIndex idx, const Object& obj) { objs.emplace_back(idx, &obj); });
  std::sort(objs.begin(), objs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Encoder e;
  e.put(SnapshotHeader{owner_, reboot_count_, next_index_, static_cast<uint32_t>(objs.size())});
  for (const auto& [idx, o] : objs) {
    const WireLinks links = wire_links(idx, *o);
    const RequestPayload& req = req_fields(*o);
    const MonitorState& mon = monitor_fields(idx, *o);
    // perms is kNone on a Request object and endpoint_cid kInvalidCap on a Memory one: no
    // path sets the other kind's field, and restore drops it.
    e.put(SnapshotObject{
        idx, o->kind, o->invalidated, o->parent, o->first_child, links.last_child,
        links.prev_sibling, o->next_sibling, mem_fields(*o), o->perms, o->is_root, req.provider,
        o->endpoint_cid,
        req.args != nullptr ? std::optional<RequestArgs>(*req.args) : std::nullopt,
        o->indirection, o->creator, mon.delegator, mon.delegate_sub, mon.delegatee_count,
        mon.is_delegatee_child, mon.receive_subs});
  }
  return e.take();
}

Status ObjectTable::restore_snapshot(const std::vector<uint8_t>& blob) {
  // Destructive restore: the caller is replacing a stale or diverged replica wholesale, so a
  // refused blob leaves an empty table (and an error to act on).
  clear_objects();
  Decoder d(blob);
  SnapshotHeader head;
  d.get(head);
  // More objects than one shard can hold could run a shard out of slot ids.
  if (!d.ok() || head.owner != owner_ || head.next_index == kInvalidObject ||
      head.count > kMaxShardSlots) {
    return ErrorCode::kInvalidArgument;
  }
  reboot_count_ = head.reboot_count;
  next_index_ = head.next_index;
  // Each parent's wire last_child: the slot keeps it as its first child's prev_sibling,
  // which the blob leaves unset (wire_links).
  std::vector<std::pair<ObjectIndex, ObjectIndex>> last_children;
  SnapshotObject rec;
  for (uint32_t i = 0; i < head.count; ++i) {
    d.get(rec);
    // Blobs come from peers: an index must be one this table could have minted (in
    // [1, next), so never the free marker kInvalidObject) and appear once.
    if (!d.ok() || rec.idx == 0 || rec.idx >= next_index_ || exists(rec.idx)) {
      clear_objects();
      return ErrorCode::kInvalidArgument;
    }
    Object o(rec.kind);
    o.invalidated = rec.invalidated;
    o.parent = rec.parent;
    o.first_child = rec.first_child;
    o.prev_sibling = rec.prev_sibling;
    o.next_sibling = rec.next_sibling;
    o.is_root = rec.is_root;
    o.indirection = rec.indirection;
    o.creator = rec.creator;
    // Fields of the other kind were serialized as defaults; they are dropped.
    if (o.kind == ObjectKind::kRequest) {
      o.req.provider = rec.provider;
      o.endpoint_cid = rec.endpoint_cid;
      if (rec.args.has_value()) {
        o.req.args = intern_args(std::move(*rec.args));
      }
    } else {
      o.mem = rec.desc;
      o.perms = rec.perms;
    }
    if (rec.first_child != kInvalidObject || rec.last_child != kInvalidObject) {
      last_children.emplace_back(rec.idx, rec.last_child);
    }
    // delegate_sub and delegatee_count are only ever set on a delegator.
    if (rec.delegator || rec.is_delegatee_child || !rec.receive_subs.empty()) {
      monitor_for(rec.idx, o) =
          MonitorState{rec.delegator, rec.delegate_sub, rec.delegatee_count,
                       rec.is_delegatee_child, std::move(rec.receive_subs)};
    }
    insert_with_index(rec.idx, std::move(o));
  }
  bool valid = d.done();
  for (size_t i = 0; valid && i < last_children.size(); ++i) {
    const auto [parent, last] = last_children[i];
    Object* first = mutable_lookup(find_object(parent)->first_child);
    valid = first != nullptr && first->prev_sibling == kInvalidObject;
    if (valid) {
      first->prev_sibling = last;
    }
  }
  if (!valid || !tree_links_valid()) {
    clear_objects();
    return ErrorCode::kInvalidArgument;
  }
  return ok_status();
}

bool ObjectTable::tree_links_valid() const {
  bool valid = true;
  size_t parented = 0;
  size_t listed = 0;
  for_each_object([&](ObjectIndex idx, const Object& o) {
    if (!valid) {
      return;
    }
    if (o.parent == kInvalidObject) {
      valid = o.prev_sibling == kInvalidObject && o.next_sibling == kInvalidObject;
    } else {
      ++parented;
      valid = o.parent < idx && exists(o.parent);
    }
    // The first child's prev_sibling must name the last child, checked once the walk ends;
    // every later child's names its predecessor.
    ObjectIndex prev = kInvalidObject;
    for (ObjectIndex c = o.first_child; valid && c != kInvalidObject;) {
      const Object* child = find_object(c);
      // A sibling cycle revisits a child from another predecessor, or the first child, so it
      // fails here too.
      valid = child != nullptr && child->parent == idx &&
              (prev == kInvalidObject || (c != o.first_child && child->prev_sibling == prev));
      ++listed;
      prev = c;
      c = valid ? child->next_sibling : kInvalidObject;
    }
    valid = valid && (prev == kInvalidObject || find_object(o.first_child)->prev_sibling == prev);
  });
  return valid && listed == parented;
}

uint64_t ObjectTable::digest() const {
  auto fold = [](uint64_t h, uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
    return h;
  };
  // Per-object hashes combine by addition, so the digest is independent of shard iteration
  // order — it compares equal across members whose slabs filled in different orders only if
  // the object *states* agree.
  uint64_t sum = 0;
  for_each_object([&](ObjectIndex idx, const Object& o) {
    const MemoryDesc& mem = mem_fields(o);
    const RequestPayload& req = req_fields(o);
    const MonitorState& mon = monitor_fields(idx, o);
    uint64_t h = 0xcbf29ce484222325ull;
    h = fold(h, idx);
    h = fold(h, static_cast<uint64_t>(o.kind));
    h = fold(h, o.invalidated ? 1 : 0);
    h = fold(h, o.parent);
    h = fold(h, o.first_child);
    h = fold(h, wire_links(idx, o).last_child);
    h = fold(h, mem.node);
    h = fold(h, mem.pool);
    h = fold(h, mem.addr);
    h = fold(h, mem.size);
    h = fold(h, static_cast<uint64_t>(o.perms));
    h = fold(h, o.is_root ? 1 : 0);
    h = fold(h, req.provider);
    h = fold(h, o.endpoint_cid);
    h = fold(h, req.args ? hash_args(*req.args) : 0);
    h = fold(h, o.indirection ? 1 : 0);
    h = fold(h, o.creator);
    h = fold(h, mon.delegator ? 1 : 0);
    h = fold(h, mon.delegate_sub.controller);
    h = fold(h, mon.delegate_sub.process);
    h = fold(h, mon.delegate_sub.callback_id);
    h = fold(h, mon.delegatee_count);
    h = fold(h, mon.is_delegatee_child ? 1 : 0);
    h = fold(h, mon.receive_subs.size());
    for (const MonitorSub& s : mon.receive_subs) {
      h = fold(h, s.controller);
      h = fold(h, s.process);
      h = fold(h, s.callback_id);
    }
    sum += h;
  });
  uint64_t h = 0xcbf29ce484222325ull;
  h = fold(h, owner_);
  h = fold(h, reboot_count_);
  h = fold(h, next_index_);
  h = fold(h, live_);
  h = fold(h, total_);
  return h ^ sum;
}

std::vector<ObjectIndex> ObjectTable::invalidated_objects() const {
  std::vector<ObjectIndex> out;
  for_each_object([&](ObjectIndex idx, const Object& o) {
    if (o.invalidated) {
      out.push_back(idx);
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

// --- failure handling ----------------------------------------------------------------------

void ObjectTable::reboot() {
  clear_objects();
  next_index_ = 1;
  ++reboot_count_;
}

void ObjectTable::clear_objects() {
  for (Shard& shard : shards_) {
    shard = Shard{};
  }
  index_ = DenseIndex{};
  monitors_.clear();
  args_pool_.clear();
  live_ = 0;
  total_ = 0;
}

// --- introspection -------------------------------------------------------------------------

ObjectRef ObjectTable::ref_of(ObjectIndex idx) const {
  // Callers name an object they just minted or looked up, never an index from input.
  FRACTOS_DCHECK(exists(idx));
  return ObjectRef{owner_, idx, reboot_count_};
}

bool ObjectTable::is_invalidated(ObjectIndex idx) const {
  const Object* o = find_object(idx);
  return o == nullptr || o->invalidated;
}

bool ObjectTable::exists(ObjectIndex idx) const { return find_slot(idx) != nullptr; }

ObjectKind ObjectTable::kind_of(ObjectIndex idx) const {
  const Object* o = find_object(idx);
  // The one caller names the object apply() just minted, never an index from input.
  FRACTOS_CHECK(o != nullptr);
  return o->kind;
}

size_t ObjectTable::chain_depth(ObjectIndex idx) const {
  size_t depth = 0;
  for (ObjectIndex cur = idx; cur != kInvalidObject;) {
    const Object* o = find_object(cur);
    if (o == nullptr) {
      break;
    }
    ++depth;
    cur = o->parent;
  }
  return depth;
}

size_t ObjectTable::interned_args_count() const {
  size_t n = 0;
  for (const auto& [hash, bucket] : args_pool_) {
    for (const std::weak_ptr<const RequestArgs>& w : bucket) {
      if (!w.expired()) {
        ++n;
      }
    }
  }
  return n;
}

size_t ObjectTable::slot_capacity() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    for (size_t s = 0; s < shard.slabs.size(); ++s) {
      n += slab_slots(s);
    }
  }
  return n;
}

// --- imm overlap ---------------------------------------------------------------------------

namespace {

uint32_t end_of(const ImmExtent& e) { return e.end(); }
uint32_t end_of(const ImmBounds& b) { return b.end; }

template <typename Existing>
Status check_overlap(const Existing& existing, const std::vector<ImmExtent>& added) {
  // Sort + sweep over both sets at once; only added-vs-existing and added-vs-added pairs are
  // checked (pre-existing overlaps between `existing` extents are never this call's fault).
  // Matches the pairwise predicate `a.offset < b.end() && b.offset < a.end()` exactly,
  // including its zero-length corner: an empty extent overlaps only when strictly inside
  // another extent, never at an equal offset.
  if (added.empty()) {
    return ok_status();
  }
  struct Ev {
    uint32_t off;
    uint32_t end;
    bool is_added;
  };
  // Short lists (the common case: a handful of extents per Request) sort in place on the
  // stack; only longer ones take a heap block.
  constexpr size_t kInlineExtents = 8;
  const size_t n = existing.size() + added.size();
  Ev inline_evs[kInlineExtents] = {};
  std::vector<Ev> heap_evs(n > kInlineExtents ? n : 0);
  Ev* const evs = n > kInlineExtents ? heap_evs.data() : inline_evs;
  size_t filled = 0;
  for (const auto& e : existing) {
    evs[filled++] = Ev{e.offset, end_of(e), false};
  }
  for (const ImmExtent& e : added) {
    evs[filled++] = Ev{e.offset, e.end(), true};
  }
  std::sort(evs, evs + n, [](const Ev& a, const Ev& b) { return a.off < b.off; });

  uint64_t max_end_existing = 0;  // max end among extents with strictly lower offset
  uint64_t max_end_added = 0;
  size_t i = 0;
  while (i < n) {
    // Process one equal-offset group.
    size_t j = i;
    size_t nonzero_added = 0;
    size_t nonzero_existing = 0;
    while (j < n && evs[j].off == evs[i].off) {
      const Ev& c = evs[j];
      // Against strictly-lower offsets: overlap iff some prior extent ends past c.off.
      if (c.is_added) {
        if (max_end_existing > c.off || max_end_added > c.off) {
          return ErrorCode::kArgumentOverlap;
        }
        if (c.end > c.off) {
          ++nonzero_added;
        }
      } else {
        if (max_end_added > c.off) {
          return ErrorCode::kArgumentOverlap;
        }
        if (c.end > c.off) {
          ++nonzero_existing;
        }
      }
      ++j;
    }
    // Within the group: equal offsets overlap only when both extents are non-empty.
    if (nonzero_added >= 2 || (nonzero_added >= 1 && nonzero_existing >= 1)) {
      return ErrorCode::kArgumentOverlap;
    }
    for (size_t k = i; k < j; ++k) {
      uint64_t& max_end = evs[k].is_added ? max_end_added : max_end_existing;
      max_end = std::max(max_end, static_cast<uint64_t>(evs[k].end));
    }
    i = j;
  }
  return ok_status();
}

}  // namespace

Status check_imm_overlap(const std::vector<ImmExtent>& existing,
                         const std::vector<ImmExtent>& added) {
  return check_overlap(existing, added);
}

Status check_imm_overlap_bounds(std::span<const ImmBounds> existing,
                                const std::vector<ImmExtent>& added) {
  return check_overlap(existing, added);
}

}  // namespace fractos
