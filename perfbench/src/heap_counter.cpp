#include "heap_counter.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Byte counts use malloc_usable_size, so operator delete needs no size
// header and the count is what the C allocator actually holds.
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};
std::atomic<std::uint64_t> g_allocs{0};

void note_alloc(void* p) noexcept {
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  g_allocs.fetch_add(1, std::memory_order_relaxed);
}

void note_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

void* allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* allocate_aligned(std::size_t n, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) & ~(a - 1));
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void release(void* p) noexcept {
  note_free(p);
  std::free(p);
}

}  // namespace

namespace perfbench::heap {

Window begin_window() noexcept {
  const std::int64_t live = g_live.load(std::memory_order_relaxed);
  g_peak.store(live, std::memory_order_relaxed);
  return Window{live, g_allocs.load(std::memory_order_relaxed)};
}

std::int64_t peak_bytes_since(const Window& window) noexcept {
  return g_peak.load(std::memory_order_relaxed) - window.live_at_start;
}

std::uint64_t allocs_since(const Window& window) noexcept {
  return g_allocs.load(std::memory_order_relaxed) - window.allocs_at_start;
}

}  // namespace perfbench::heap

// The array and nothrow forms of the standard library forward to these.
// noinline keeps GCC from pairing an inlined malloc with an inlined free and
// misreporting -Wmismatched-new-delete.
__attribute__((noinline)) void* operator new(std::size_t n) {
  return allocate(n);
}
__attribute__((noinline)) void* operator new(std::size_t n,
                                             std::align_val_t align) {
  return allocate_aligned(n, align);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  release(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  release(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::align_val_t) noexcept {
  release(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  release(p);
}
