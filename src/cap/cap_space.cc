#include "src/cap/cap_space.h"

#include <algorithm>

#include "src/base/assert.h"

namespace fractos {

namespace {

constexpr size_t kNoBucket = ~size_t{0};

// splitmix64 finalizer: owners, generations and sequential indices spread over the buckets.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

CapSpace::CapSpace(uint32_t quota) : quota_(quota) {}

uint32_t CapSpace::ref_hash(const ObjectRef& ref) {
  // Collisions are tolerated (probes compare the full ref), so a cheap fold suffices before
  // the mix.
  return static_cast<uint32_t>(mix64((static_cast<uint64_t>(ref.owner) << 40) ^
                                     (static_cast<uint64_t>(ref.reboot_count) << 32) ^
                                     ref.index));
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

// --- ref index -----------------------------------------------------------------------------

size_t CapSpace::probe(const ObjectRef& ref, uint32_t hash) const {
  const size_t mask = buckets_.size() - 1;
  for (size_t b = hash & mask;; b = (b + 1) & mask) {
    const RefBucket& bucket = buckets_[b];
    if (bucket.head == kInvalidCap ||
        (bucket.hash == hash && find(bucket.head)->ref() == ref)) {
      return b;
    }
  }
}

size_t CapSpace::find_chain(const ObjectRef& ref, uint32_t hash) const {
  if (buckets_.empty()) {
    return kNoBucket;
  }
  const size_t b = probe(ref, hash);
  return buckets_[b].head == kInvalidCap ? kNoBucket : b;
}

void CapSpace::erase_chain(size_t hole) {
  // Backward-shift deletion: pull each later member of the probe run into the hole unless
  // that would move it in front of its home bucket. No tombstones, so churn never degrades
  // probe lengths.
  const size_t mask = buckets_.size() - 1;
  for (size_t b = (hole + 1) & mask; buckets_[b].head != kInvalidCap; b = (b + 1) & mask) {
    const size_t home = buckets_[b].hash & mask;
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      buckets_[hole] = buckets_[b];
      hole = b;
    }
  }
  buckets_[hole] = RefBucket{};
  --chains_;
}

void CapSpace::grow_index() {
  std::vector<RefBucket> old = std::move(buckets_);
  buckets_.assign(old.empty() ? 16 : old.size() * 2, RefBucket{});
  const size_t mask = buckets_.size() - 1;
  for (const RefBucket& bucket : old) {
    if (bucket.head == kInvalidCap) {
      continue;
    }
    size_t b = bucket.hash & mask;
    while (buckets_[b].head != kInvalidCap) {
      b = (b + 1) & mask;
    }
    buckets_[b] = bucket;
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

  // Link at the head of the ref's chain, starting the chain if the ref is new. The index grows
  // before the probe, so one probe finds either the chain or the bucket for a new one.
  if ((chains_ + 1) * 4 > buckets_.size() * 3) {
    grow_index();
  }
  const uint32_t hash = ref_hash(entry.ref);
  RefBucket& bucket = buckets_[probe(entry.ref, hash)];
  if (bucket.head != kInvalidCap) {
    s.next = bucket.head;
    slot(s.next).prev = cid;
  } else {
    bucket.hash = hash;
    ++chains_;
  }
  bucket.head = cid;
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
  } else {
    const ObjectRef ref = s->ref();
    const size_t b = find_chain(ref, ref_hash(ref));
    FRACTOS_DCHECK(b != kNoBucket && buckets_[b].head == cid);
    if (s->next != kInvalidCap) {
      buckets_[b].head = s->next;
    } else {
      erase_chain(b);
    }
  }
  release(cid, *s);
  return ok_status();
}

size_t CapSpace::purge_refs(const std::vector<ObjectRef>& revoked) {
  size_t purged = 0;
  for (const ObjectRef& r : revoked) {
    const size_t b = find_chain(r, ref_hash(r));
    if (b == kNoBucket) {
      continue;
    }
    for (CapId cid = buckets_[b].head; cid != kInvalidCap;) {
      Slot& s = slot(cid);
      const CapId next = s.next;  // read before release() may free the page
      release(cid, s);
      ++purged;
      cid = next;
    }
    erase_chain(b);
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
