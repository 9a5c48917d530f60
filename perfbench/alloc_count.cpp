// Counting replacement for the global operator new/delete. The benchmark
// runs on one thread (lanes = 1), so the counters are updated with plain
// relaxed loads and stores: no locked read-modify-write on the
// allocation path the benchmark is timing.
#include "alloc_count.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};

void note_alloc(void* p) {
  const std::uint64_t live =
      g_live.load(std::memory_order_relaxed) + malloc_usable_size(p);
  g_live.store(live, std::memory_order_relaxed);
  if (live > g_peak.load(std::memory_order_relaxed)) {
    g_peak.store(live, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n ? n : 1);
  if (p) note_alloc(p);
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0) {
    return nullptr;
  }
  note_alloc(p);
  return p;
}

void counted_free(void* p) noexcept {
  if (!p) return;
  g_live.store(g_live.load(std::memory_order_relaxed) - malloc_usable_size(p),
               std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace tfo::perfbench {

std::uint64_t live_heap_bytes() { return g_live.load(std::memory_order_relaxed); }
std::uint64_t heap_peak_bytes() { return g_peak.load(std::memory_order_relaxed); }
void reset_heap_peak() { g_peak.store(live_heap_bytes(), std::memory_order_relaxed); }

}  // namespace tfo::perfbench

void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a));
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) { return ::operator new(n, a); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
