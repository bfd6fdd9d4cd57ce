// The counting replacements of the global operator new/delete (src/base/alloc_count.h).
// Every form forwards to malloc/free (aligned_alloc for over-aligned types), which is what
// the C++ runtime's own versions do; the only addition is the count.

#include "src/base/alloc_count.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace fractos {
namespace {

uint64_t g_allocations = 0;  // the simulator runs on one thread

void* counted_alloc(std::size_t n, std::size_t align) {
  ++g_allocations;
  if (n == 0) {
    n = 1;
  }
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

uint64_t heap_allocations() { return g_allocations; }

}  // namespace fractos

void* operator new(std::size_t n) { return fractos::counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return fractos::counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return fractos::counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return fractos::counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
