#include "common/alloc_hooks.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/check.hpp"

namespace ptrack::alloc {
namespace {

// Plain PODs: zero-initialized, no dynamic init, so the hooks may run from
// the very first allocation of a thread (including before main).
struct Tls {
  std::uint64_t allocations;
  std::uint64_t deallocations;
  std::uint64_t bytes;
  int enforce_depth;         // > 0: an armed NoAllocScope encloses us
  const char* enforce_label; // innermost armed scope, for the message
  bool reporting;            // true while building the violation exception
};
thread_local Tls t_alloc;

constinit std::atomic<std::uint64_t> g_live_allocs{0};
constinit std::atomic<std::uint64_t> g_live_bytes{0};

std::size_t usable_size(void* p, std::size_t requested) noexcept {
#if defined(__GLIBC__)
  (void)requested;
  return malloc_usable_size(p);
#else
  (void)p;
  return requested;
#endif
}

void note_alloc(void* p, std::size_t requested) noexcept {
  ++t_alloc.allocations;
  t_alloc.bytes += requested;
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(usable_size(p, requested), std::memory_order_relaxed);
}

[[noreturn]] void fail_enforced(std::size_t size) {
  // Building the exception string allocates; flag the thread so the hook
  // lets those allocations through (NoAllocScope's destructor clears the
  // flag during unwinding).
  t_alloc.reporting = true;
  const char* label =
      t_alloc.enforce_label != nullptr ? t_alloc.enforce_label : "<unnamed>";
  throw InvariantViolation(std::string("heap allocation of ") +
                           std::to_string(size) + " bytes inside NoAllocScope '" +
                           label + "'");
}

void* do_alloc(std::size_t size, std::size_t align, bool can_throw) {
  if (t_alloc.enforce_depth > 0 && !t_alloc.reporting && can_throw) {
    fail_enforced(size);
  }
  if (size == 0) size = 1;
  for (;;) {
    void* p = nullptr;
    if (align > alignof(std::max_align_t)) {
      const std::size_t a = align < sizeof(void*) ? sizeof(void*) : align;
      if (posix_memalign(&p, a, size) != 0) p = nullptr;
    } else {
      p = std::malloc(size);
    }
    if (p != nullptr) {
      note_alloc(p, size);
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) {
      if (can_throw) throw std::bad_alloc{};
      return nullptr;
    }
    handler();
  }
}

void do_free(void* p) noexcept {
  if (p == nullptr) return;
  ++t_alloc.deallocations;
  g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
  g_live_bytes.fetch_sub(usable_size(p, 0), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

ThreadStats thread_stats() noexcept {
  return ThreadStats{t_alloc.allocations, t_alloc.deallocations, t_alloc.bytes};
}

std::uint64_t live_allocations() noexcept {
  return g_live_allocs.load(std::memory_order_relaxed);
}

std::uint64_t live_bytes() noexcept {
  return g_live_bytes.load(std::memory_order_relaxed);
}

bool NoAllocScope::enforcement_available() noexcept { return checks_enabled(); }

NoAllocScope::NoAllocScope(const char* label, Mode mode) noexcept
    : label_(label),
      entry_allocations_(t_alloc.allocations),
      armed_(mode == Mode::kEnforce && enforcement_available()) {
  if (armed_) {
    ++t_alloc.enforce_depth;
    t_alloc.enforce_label = label_;
  }
}

NoAllocScope::~NoAllocScope() {
  if (armed_) {
    --t_alloc.enforce_depth;
    if (t_alloc.enforce_depth == 0) t_alloc.enforce_label = nullptr;
    t_alloc.reporting = false;  // re-arm after a reported violation unwinds
  }
}

std::uint64_t NoAllocScope::observed() const noexcept {
  return t_alloc.allocations - entry_allocations_;
}

}  // namespace ptrack::alloc

// ---------------------------------------------------------------------------
// Global replacement set. Everything funnels through do_alloc/do_free so the
// counters agree regardless of which overload the compiler picks; aligned
// storage comes from posix_memalign, which free() releases, so the delete
// overloads do not need to distinguish alignment.

// ptrack-lint: push-allow(alloc) operator-new replacement TU

void* operator new(std::size_t size) {
  return ptrack::alloc::do_alloc(size, 0, /*can_throw=*/true);
}
void* operator new[](std::size_t size) {
  return ptrack::alloc::do_alloc(size, 0, /*can_throw=*/true);
}
void* operator new(std::size_t size, std::align_val_t al) {
  return ptrack::alloc::do_alloc(size, static_cast<std::size_t>(al),
                                 /*can_throw=*/true);
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ptrack::alloc::do_alloc(size, static_cast<std::size_t>(al),
                                 /*can_throw=*/true);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return ptrack::alloc::do_alloc(size, 0, /*can_throw=*/false);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ptrack::alloc::do_alloc(size, 0, /*can_throw=*/false);
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return ptrack::alloc::do_alloc(size, static_cast<std::size_t>(al),
                                 /*can_throw=*/false);
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return ptrack::alloc::do_alloc(size, static_cast<std::size_t>(al),
                                 /*can_throw=*/false);
}

void operator delete(void* p) noexcept { ptrack::alloc::do_free(p); }
void operator delete[](void* p) noexcept { ptrack::alloc::do_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  ptrack::alloc::do_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  ptrack::alloc::do_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  ptrack::alloc::do_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ptrack::alloc::do_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ptrack::alloc::do_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ptrack::alloc::do_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ptrack::alloc::do_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ptrack::alloc::do_free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  ptrack::alloc::do_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  ptrack::alloc::do_free(p);
}

// ptrack-lint: pop-allow(alloc)
