#include "alloc_hook.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "harness.h"

namespace perfbench::alloc {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_calls{0};
std::atomic<uint64_t> g_bytes{0};

inline void Count(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_calls.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

void* Allocate(std::size_t n) {
  Count(n);
  return std::malloc(n == 0 ? 1 : n);
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  Count(n);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = n == 0 ? a : (n + a - 1) / a * a;
  return std::aligned_alloc(a, size);
}

}  // namespace

void SetCounting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

Counts Read() {
  return Counts{g_calls.load(std::memory_order_relaxed),
                g_bytes.load(std::memory_order_relaxed)};
}

double HookCostNs() {
  constexpr int kPairs = 200000;
  constexpr int kRounds = 7;
  auto loop = [&] {
    const int64_t start = NowNs();
    for (int i = 0; i < kPairs; ++i) {
      void* p = ::operator new(64);
      asm volatile("" : : "r"(p) : "memory");  // keep the pair
      ::operator delete(p);
    }
    return static_cast<double>(NowNs() - start) / kPairs;
  };
  const bool was_counting = g_counting.load(std::memory_order_relaxed);
  std::vector<double> deltas;
  for (int r = 0; r < kRounds; ++r) {
    SetCounting(false);
    const double off = loop();
    SetCounting(true);
    const double on = loop();
    deltas.push_back(on - off);
  }
  SetCounting(was_counting);
  std::sort(deltas.begin(), deltas.end());
  return deltas[deltas.size() / 2];
}

}  // namespace perfbench::alloc

// GCC flags free() of memory from a replaced operator new as mismatched;
// here both sides are ours and use malloc/free.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

using perfbench::alloc::Allocate;
using perfbench::alloc::AllocateAligned;

void* operator new(std::size_t n) {
  if (void* p = Allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = Allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = AllocateAligned(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = AllocateAligned(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
