#include "src/base/extent.h"

#include <iterator>

#include "src/base/assert.h"

namespace fractos {

ExtentAllocator::ExtentAllocator(uint64_t capacity) : capacity_(capacity) {
  if (capacity_ > 0) {
    free_.emplace(capacity_, 0);
  }
}

std::optional<uint64_t> ExtentAllocator::allocate(uint64_t size, uint64_t align) {
  FRACTOS_CHECK(align > 0);  // every caller passes a constant; not input
  if (size == 0) {
    return std::nullopt;
  }
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    const uint64_t start = it->second;
    const uint64_t end = it->first;
    // The first multiple of `align` at or after `start`, as an offset into the range.
    const uint64_t pad = (align - start % align) % align;
    if (!extent_within(pad, size, end - start)) {
      continue;
    }
    const uint64_t addr = start + pad;
    if (size == end - addr) {
      it = free_.erase(it);
    } else {
      it->second = addr + size;
    }
    if (pad > 0) {
      free_.emplace_hint(it, addr, start);
    }
    in_use_ += size;
    return addr;
  }
  return std::nullopt;
}

void ExtentAllocator::release(uint64_t addr, uint64_t size) {
  // Callers return only the ranges allocate() gave them, each once; not input.
  FRACTOS_CHECK(size > 0 && size <= in_use_ && extent_within(addr, size, capacity_));
  const uint64_t end = addr + size;
  auto next = free_.upper_bound(addr);  // the first free range ending past addr
  FRACTOS_CHECK(next == free_.end() || next->second >= end);  // no byte is freed twice
  uint64_t start = addr;
  if (next != free_.begin()) {
    if (auto prev = std::prev(next); prev->first == addr) {
      start = prev->second;
      free_.erase(prev);
    }
  }
  if (next != free_.end() && next->second == end) {
    next->second = start;
  } else {
    free_.emplace_hint(next, end, start);
  }
  in_use_ -= size;
}

}  // namespace fractos
