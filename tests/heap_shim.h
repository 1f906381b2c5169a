// Counting heap shim for test binaries that pin allocation counts or heap
// footprints. Include it from exactly one translation unit of a binary: it
// defines the replaceable global allocation functions.
//
// Every form is replaced (plain, array, nothrow, aligned and their sized
// deletes), so each allocation and its release go through the same pair of
// functions. Replacing only some forms breaks under ASan: library code that
// allocates with the nothrow form (std::stable_sort's temporary buffer)
// would get ASan's own operator new and then free through this shim, which
// ASan reports as an alloc-dealloc mismatch.
//
// Counting is always on and process-wide; tests read deltas around the
// phase they care about.
#pragma once

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace lookaside::heap_shim {

/// Allocation calls since process start.
inline std::atomic<long> g_allocations{0};
/// Live heap bytes, as malloc_usable_size reports each block.
inline std::atomic<long long> g_live_bytes{0};

[[nodiscard]] inline long allocations() { return g_allocations.load(); }
[[nodiscard]] inline long long live_bytes() { return g_live_bytes.load(); }

/// The one allocation path; nullptr on failure. `alignment` 0 means the
/// default new alignment. Kept out of line: inlined into operator new, its
/// malloc lets gcc 12 follow allocation sizes into std::vector::resize and
/// report false -Warray-bounds.
[[nodiscard, gnu::noinline]] inline void* allocate(
    std::size_t size, std::size_t alignment = 0) noexcept {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment == 0) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, std::max(alignment, sizeof(void*)), size)) {
    p = nullptr;
  }
  if (p == nullptr) return nullptr;
  ++g_allocations;
  g_live_bytes += static_cast<long long>(malloc_usable_size(p));
  return p;
}

inline void* allocate_or_throw(std::size_t size, std::size_t alignment = 0) {
  void* p = allocate(size, alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// The one release path.
inline void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes -= static_cast<long long>(malloc_usable_size(p));
  std::free(p);
}

}  // namespace lookaside::heap_shim

void* operator new(std::size_t size) {
  return lookaside::heap_shim::allocate_or_throw(size);
}
void* operator new[](std::size_t size) {
  return lookaside::heap_shim::allocate_or_throw(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return lookaside::heap_shim::allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return lookaside::heap_shim::allocate(size);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return lookaside::heap_shim::allocate_or_throw(
      size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return lookaside::heap_shim::allocate_or_throw(
      size, static_cast<std::size_t>(alignment));
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return lookaside::heap_shim::allocate(size,
                                        static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return lookaside::heap_shim::allocate(size,
                                        static_cast<std::size_t>(alignment));
}

void operator delete(void* p) noexcept { lookaside::heap_shim::release(p); }
void operator delete[](void* p) noexcept { lookaside::heap_shim::release(p); }
void operator delete(void* p, std::size_t) noexcept {
  lookaside::heap_shim::release(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  lookaside::heap_shim::release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  lookaside::heap_shim::release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  lookaside::heap_shim::release(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  lookaside::heap_shim::release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  lookaside::heap_shim::release(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  lookaside::heap_shim::release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  lookaside::heap_shim::release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  lookaside::heap_shim::release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  lookaside::heap_shim::release(p);
}
