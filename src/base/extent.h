// Tenant address space: the one range check and the one allocator.
//
// Every service that hands tenants regions of a shared device or pool (GPU memory, block
// volumes, far-memory segments, baseline files) places them with an ExtentAllocator, and
// every bound on a tenant-supplied offset and size is an extent_within. Neither forms
// `off + size`: near 2^64 that sum wraps, and a wrapped bound or placement lands in another
// tenant's bytes.

#ifndef SRC_BASE_EXTENT_H_
#define SRC_BASE_EXTENT_H_

#include <cstdint>
#include <map>
#include <optional>

namespace fractos {

// True when [off, off + size) lies inside [0, limit).
constexpr bool extent_within(uint64_t off, uint64_t size, uint64_t limit) {
  return off <= limit && size <= limit - off;
}

// First-fit by address over [0, capacity). A length is never rounded up: alignment places
// a range's start, and the bytes an alignment skips stay free for a smaller alignment.
class ExtentAllocator {
 public:
  explicit ExtentAllocator(uint64_t capacity);

  // The lowest multiple of `align` (> 0) that starts `size` free bytes, now in use; nullopt
  // when `size` is 0 or no free range holds it.
  std::optional<uint64_t> allocate(uint64_t size, uint64_t align);
  // Frees [addr, addr + size), a range allocate() handed out, merging it with its free
  // neighbours.
  void release(uint64_t addr, uint64_t size);

  uint64_t capacity() const { return capacity_; }
  uint64_t bytes_in_use() const { return in_use_; }

 private:
  uint64_t capacity_;
  uint64_t in_use_ = 0;
  // The maximal free ranges, end -> start. Keyed by end, so carving a range's front (the
  // common case) edits the value in place.
  std::map<uint64_t, uint64_t> free_;
};

}  // namespace fractos

#endif  // SRC_BASE_EXTENT_H_
