#include "src/cap/cap_space.h"

#include <algorithm>

#include "src/base/assert.h"

namespace fractos {

static_assert(kInvalidCap == DenseIndex::kAbsent, "a ref without a chain has head kInvalidCap");

CapSpace::CapSpace(uint32_t quota) : quota_(quota) {}

uint64_t CapSpace::ref_group(const ObjectRef& ref) {
  return (static_cast<uint64_t>(ref.owner) << 32) | ref.reboot_count;
}

// --- cid pages -----------------------------------------------------------------------------

CapSpace::Slot* CapSpace::find(CapId cid) {
  return const_cast<Slot*>(static_cast<const CapSpace*>(this)->find(cid));
}

const CapSpace::Slot* CapSpace::find(CapId cid) const {
  const size_t page = cid >> kPageShift;
  if (page >= pages_.size()) {
    return nullptr;
  }
  const std::vector<Slot>& slots = pages_[page].slots;
  const size_t off = cid & (kPageSlots - 1);
  if (off >= slots.size() || !slots[off].live) {
    return nullptr;
  }
  return &slots[off];
}

void CapSpace::release(CapId cid, Slot& s) {
  s.live = false;
  --live_;
  Page& page = pages_[cid >> kPageShift];
  if (--page.live == 0 && page.slots.size() == kPageSlots) {
    std::vector<Slot>().swap(page.slots);  // every cid of the page is minted and gone
  }
}

// --- operations ----------------------------------------------------------------------------

Result<CapId> CapSpace::install(CapEntry entry) {
  // cids are NEVER reused: a stale cid held after revocation/purge must not silently alias a
  // newer capability (the confused-deputy hazard of POSIX fd reuse).
  if (live_ >= quota_ || next_cid_ == kInvalidCap) {
    return ErrorCode::kResourceExhausted;
  }
  const CapId cid = next_cid_++;
  if ((cid >> kPageShift) == pages_.size()) {
    pages_.emplace_back();
    if (pages_.size() > 1) {
      pages_.back().slots.reserve(kPageSlots);  // a space this large fills pages whole
    }
  }
  Page& page = pages_.back();
  if (page.slots.size() == page.slots.capacity()) {
    page.slots.reserve(std::min<size_t>(std::max<size_t>(2 * page.slots.size(), 4), kPageSlots));
  }
  Slot& s = page.slots.emplace_back();
  ++page.live;
  ++live_;
  s.index = entry.ref.index;
  s.owner = entry.ref.owner;
  s.reboot_count = entry.ref.reboot_count;
  s.mem = entry.mem;
  s.kind = entry.kind;
  s.perms = entry.perms;
  s.tracked = entry.tracked;
  s.live = true;

  // Link at the head of the ref's chain, starting the chain if the ref is new.
  const CapId head = heads_.put(entry.ref.index, cid, ref_group(entry.ref));
  if (head != kInvalidCap) {
    s.next = head;
    slot(head).prev = cid;
  }
  return cid;
}

Result<CapEntry> CapSpace::get(CapId cid) const {
  const Slot* s = find(cid);
  if (s == nullptr) {
    return ErrorCode::kInvalidCapability;
  }
  return CapEntry{s->ref(), s->kind, s->perms, s->mem, s->tracked};
}

Status CapSpace::remove(CapId cid) {
  Slot* s = find(cid);
  if (s == nullptr) {
    return ErrorCode::kInvalidCapability;
  }
  if (s->next != kInvalidCap) {
    slot(s->next).prev = s->prev;
  }
  if (s->prev != kInvalidCap) {
    slot(s->prev).next = s->next;
  } else if (s->next != kInvalidCap) {
    [[maybe_unused]] const CapId head = heads_.put(s->index, s->next, ref_group(s->ref()));
    FRACTOS_DCHECK(head == cid);
  } else {
    [[maybe_unused]] const CapId head = heads_.erase(s->index, ref_group(s->ref()));
    FRACTOS_DCHECK(head == cid);
  }
  release(cid, *s);
  return ok_status();
}

size_t CapSpace::purge_refs(const std::vector<ObjectRef>& revoked) {
  size_t purged = 0;
  for (const ObjectRef& r : revoked) {
    for (CapId cid = heads_.erase(r.index, ref_group(r)); cid != kInvalidCap;) {
      Slot& s = slot(cid);
      const CapId next = s.next;  // read before release() may free the page
      release(cid, s);
      ++purged;
      cid = next;
    }
  }
  return purged;
}

std::vector<CapEntry> CapSpace::all_entries() const {
  std::vector<CapEntry> out;
  out.reserve(live_);
  for (const Page& page : pages_) {
    for (const Slot& s : page.slots) {
      if (s.live) {
        out.push_back(CapEntry{s.ref(), s.kind, s.perms, s.mem, s.tracked});
      }
    }
  }
  return out;
}

size_t CapSpace::resident_pages() const {
  return static_cast<size_t>(std::count_if(pages_.begin(), pages_.end(), [](const Page& p) {
    return !p.slots.empty();
  }));
}

}  // namespace fractos
