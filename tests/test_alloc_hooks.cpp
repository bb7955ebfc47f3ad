// Unit contract of the allocation-discipline instrumentation
// (common/alloc_hooks.hpp): per-thread counters move with operator
// new/delete, live gauges balance, and NoAllocScope counts — or, when
// enforcement is armed, throws at the offending allocation site.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/alloc_hooks.hpp"
#include "common/error.hpp"

using namespace ptrack;

namespace {

// Forces a genuine heap round-trip the optimizer cannot elide.
void churn_heap(std::size_t n) {
  auto p = std::make_unique<volatile std::uint8_t[]>(n);
  p[0] = 1;
  p[n - 1] = p[0];
}

}  // namespace

TEST(AllocHooks, ThreadCountersMoveWithNewAndDelete) {
  const alloc::ThreadStats before = alloc::thread_stats();
  churn_heap(512);
  const alloc::ThreadStats after = alloc::thread_stats();
  EXPECT_GE(after.allocations, before.allocations + 1);
  EXPECT_GE(after.deallocations, before.deallocations + 1);
  EXPECT_GE(after.bytes, before.bytes + 512);
}

TEST(AllocHooks, LiveGaugesBalance) {
  const std::uint64_t live_before = alloc::live_allocations();
  {
    auto p = std::make_unique<volatile std::uint8_t[]>(1024);
    p[0] = 1;
    EXPECT_GE(alloc::live_allocations(), live_before + 1);
    EXPECT_GE(alloc::live_bytes(), 1024u);
  }
  // The matching delete returns the block: live count falls back.
  EXPECT_EQ(alloc::live_allocations(), live_before);
}

TEST(AllocHooks, CountingScopeObservesAllocations) {
  alloc::NoAllocScope scope("test-count", alloc::NoAllocScope::Mode::kCount);
  EXPECT_EQ(scope.observed(), 0u);
  churn_heap(256);
  EXPECT_GE(scope.observed(), 1u);
}

TEST(AllocHooks, CountingScopeNeverThrows) {
  alloc::NoAllocScope scope("test-count-quiet");
  std::vector<int> v(4096, 7);  // allocations are fine in kCount mode
  EXPECT_EQ(v.back(), 7);
}

TEST(AllocHooks, EnforcedScopeThrowsAtTheAllocationSite) {
  if (!alloc::NoAllocScope::enforcement_available()) {
    GTEST_SKIP() << "contract checks compiled out";
  }
  alloc::NoAllocScope scope("test-enforce",
                            alloc::NoAllocScope::Mode::kEnforce);
  EXPECT_THROW(churn_heap(128), InvariantViolation);
}

TEST(AllocHooks, EnforcedScopeDisarmsOnExit) {
  if (!alloc::NoAllocScope::enforcement_available()) {
    GTEST_SKIP() << "contract checks compiled out";
  }
  {
    alloc::NoAllocScope scope("test-enforce-exit",
                              alloc::NoAllocScope::Mode::kEnforce);
    EXPECT_THROW(churn_heap(128), InvariantViolation);
  }
  EXPECT_NO_THROW(churn_heap(128));
}

TEST(AllocHooks, NestedScopesStayArmed) {
  if (!alloc::NoAllocScope::enforcement_available()) {
    GTEST_SKIP() << "contract checks compiled out";
  }
  alloc::NoAllocScope outer("outer", alloc::NoAllocScope::Mode::kEnforce);
  {
    alloc::NoAllocScope inner("inner", alloc::NoAllocScope::Mode::kEnforce);
    EXPECT_THROW(churn_heap(64), InvariantViolation);
  }
  // The outer scope still enforces after the inner one unwinds.
  EXPECT_THROW(churn_heap(64), InvariantViolation);
}
