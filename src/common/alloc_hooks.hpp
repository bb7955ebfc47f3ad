// Allocation-discipline instrumentation.
//
// alloc_hooks.cpp replaces the global operator new/delete family with thin
// wrappers over malloc/posix_memalign that maintain:
//
//  * per-thread monotonic counters (allocations, deallocations, cumulative
//    bytes requested) — `thread_stats()` deltas bracket a region with zero
//    synchronization cost, which is what the steady-state no-alloc test and
//    `NoAllocScope::observed()` read;
//  * process-wide live-allocation gauges (`live_allocations()`,
//    `live_bytes()`), sampled into the obs registry at metrics-scrape time
//    as `ptrack.common.alloc.live_{allocations,bytes}`.
//
// `NoAllocScope` is the enforcement half: a region that must not touch the
// heap at steady state constructs one. In `kCount` mode it only measures
// (`observed()`); in `kEnforce` mode — armed only when the PTRACK_CHECK
// contract layer is compiled in — any throwing operator
// new on the same thread inside the scope raises InvariantViolation *at the
// offending allocation site*, so a debugger or sanitizer backtrace lands on
// the line that allocated, not on the scope exit.
//
// Sanitizer interplay: the hooks forward to malloc/free, which ASan/TSan
// intercept, so leak detection and bounds checking keep working under the
// replaced operators (new/delete-mismatch checking is the one ASan feature
// this trades away). All state is either plain `thread_local` PODs (safe to
// touch from the very first allocation on a thread, no dynamic init) or
// `constinit` atomics.

#pragma once

#include <cstdint>

namespace ptrack::alloc {

/// Monotonic per-thread allocation counters. Deltas of two snapshots bound
/// the allocator activity of the current thread between them.
struct ThreadStats {
  std::uint64_t allocations = 0;    ///< operator-new calls on this thread
  std::uint64_t deallocations = 0;  ///< operator-delete calls on this thread
  std::uint64_t bytes = 0;          ///< cumulative bytes requested
};

/// Snapshot of the calling thread's counters.
ThreadStats thread_stats() noexcept;

/// Process-wide count of currently-live heap blocks / bytes.
std::uint64_t live_allocations() noexcept;
std::uint64_t live_bytes() noexcept;

/// RAII allocation guard for a steady-state region.
class NoAllocScope {
 public:
  enum class Mode {
    kCount,    ///< measure only; read the result via observed()
    kEnforce,  ///< additionally fail on any allocation (checks builds)
  };

  /// `label` must outlive the scope (pass a string literal); it names the
  /// region in the violation message.
  explicit NoAllocScope(const char* label, Mode mode = Mode::kCount) noexcept;
  ~NoAllocScope();

  NoAllocScope(const NoAllocScope&) = delete;
  NoAllocScope& operator=(const NoAllocScope&) = delete;

  /// Allocations observed on this thread since the scope was entered.
  std::uint64_t observed() const noexcept;

  /// True when kEnforce actually arms (contract checks compiled in);
  /// otherwise kEnforce degrades to kCount.
  static bool enforcement_available() noexcept;

 private:
  const char* label_;
  std::uint64_t entry_allocations_;
  bool armed_;
};

}  // namespace ptrack::alloc
