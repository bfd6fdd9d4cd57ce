// Heap-block counting for the binaries that measure allocations. Linking
// src/base/alloc_count.cc (the fractos_alloc_count object library) into a program replaces
// the global operator new/delete with forwarders to malloc/free that count every new, so
// the count sees each C++ heap block the program asks for. Only the allocation-budget test
// and bench_simspeed link it; every other binary keeps the C++ runtime's own operator new.

#ifndef SRC_BASE_ALLOC_COUNT_H_
#define SRC_BASE_ALLOC_COUNT_H_

#include <cstdint>

namespace fractos {

// operator new calls (every form) since the program started.
uint64_t heap_allocations();

// operator new calls made while `fn()` ran.
template <typename Fn>
uint64_t heap_allocations_during(Fn&& fn) {
  const uint64_t before = heap_allocations();
  fn();
  return heap_allocations() - before;
}

}  // namespace fractos

#endif  // SRC_BASE_ALLOC_COUNT_H_
