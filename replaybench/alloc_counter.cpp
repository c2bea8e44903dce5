#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace replaybench::alloc {
namespace {

std::atomic<bool> g_counting{false};
thread_local Counts t_counts{};

void* counted_malloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    ++t_counts.count;
    t_counts.bytes += size;
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void set_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

Counts thread_counts() { return t_counts; }

}  // namespace replaybench::alloc

// Replacement allocation functions. The array and nothrow forms are
// replaced too so that every allocation path of the library is counted;
// aligned forms are left to the runtime (the library has no over-aligned
// types).
void* operator new(std::size_t size) {
  if (void* p = replaybench::alloc::counted_malloc(size)) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return replaybench::alloc::counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return replaybench::alloc::counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
