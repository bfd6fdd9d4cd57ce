// Heap bytes in use, for measuring the heap footprint of a structure: the difference across
// filling it. Shared by the benches and the tests; including it changes nothing about how
// the program allocates.

#ifndef SRC_BASE_HEAP_USAGE_H_
#define SRC_BASE_HEAP_USAGE_H_

#include <cstddef>
#include <cstdlib>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace fractos {

// Heap bytes currently allocated by the C library's malloc (arena and mmapped chunks).
// 0 where the C library cannot report it.
inline size_t heap_in_use_bytes() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
#else
  return 0;
#endif
}

// Whether heap_in_use_bytes() sees this program's allocations. It does not where the C
// library cannot report them, or where another allocator (a sanitizer runtime, say) serves
// malloc in its place.
inline bool heap_in_use_is_counted() {
  constexpr size_t kProbeBytes = size_t{1} << 20;
  const size_t before = heap_in_use_bytes();
  void* volatile block = std::malloc(kProbeBytes);
  const bool counted = block != nullptr && heap_in_use_bytes() >= before + kProbeBytes;
  std::free(block);
  return counted;
}

}  // namespace fractos

#endif  // SRC_BASE_HEAP_USAGE_H_
