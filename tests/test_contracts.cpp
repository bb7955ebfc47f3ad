// Behavior of the PTRACK_CHECK contract layer (src/common/check.hpp) and a
// sample of the invariants threaded through the libraries. The macro tests
// adapt to the build's contract mode via ptrack::checks_enabled(), so this
// file passes in every configuration (Debug, sanitizer, Release).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "core/critical_points.hpp"
#include "core/offset_metric.hpp"
#include "dsp/workspace.hpp"

namespace {

using namespace ptrack;

TEST(ContractMacro, PassingCheckIsSilent) {
  EXPECT_NO_THROW(PTRACK_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(PTRACK_CHECK_MSG(true, "never shown"));
}

TEST(ContractMacro, FailingCheckThrowsWhenEnabled) {
  if constexpr (checks_enabled()) {
    EXPECT_THROW(PTRACK_CHECK(false), InvariantViolation);
    EXPECT_THROW(PTRACK_CHECK_MSG(false, "broken"), InvariantViolation);
  } else {
    EXPECT_NO_THROW(PTRACK_CHECK(false));
    EXPECT_NO_THROW(PTRACK_CHECK_MSG(false, "broken"));
  }
}

TEST(ContractMacro, MessageCarriesExpressionAndLocation) {
  if constexpr (!checks_enabled()) GTEST_SKIP() << "checks compiled out";
  try {
    PTRACK_CHECK_MSG(2 < 1, "two is not less than one");
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos) << what;
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("two is not less than one"), std::string::npos)
        << what;
  }
}

TEST(ContractMacro, DisabledChecksDoNotEvaluateTheCondition) {
  // The condition must be side-effect free by contract; verify the macro
  // keeps that promise when compiled out, and evaluates exactly once when
  // compiled in.
  int evaluations = 0;
  auto touch = [&evaluations] {
    ++evaluations;
    return true;
  };
  PTRACK_CHECK(touch());
  EXPECT_EQ(evaluations, checks_enabled() ? 1 : 0);
}

TEST(ContractsInLibraries, UnsortedCriticalPointsAreCaught) {
  if constexpr (!checks_enabled()) GTEST_SKIP() << "checks compiled out";
  // cycle_offset's weighting assumes time-ordered points; feed it a
  // deliberately unsorted set and expect the contract to fire instead of a
  // silent size_t underflow in the gap computation.
  const std::vector<core::CriticalPoint> unsorted = {
      {40, core::CriticalKind::Maximum}, {10, core::CriticalKind::Minimum}};
  const std::vector<core::CriticalPoint> anterior = {
      {5, core::CriticalKind::Maximum}};
  EXPECT_THROW((void)core::cycle_offset(unsorted, anterior, 100),
               InvariantViolation);
}

TEST(ContractsInLibraries, WeightedOffsetStaysNormalized) {
  // Dense, ordered point sets: the weighted Eq. (1) score must stay within
  // [0, 1] (the contract inside cycle_offset double-checks this on every
  // call made by the suite).
  std::vector<core::CriticalPoint> vertical;
  std::vector<core::CriticalPoint> anterior;
  for (std::size_t i = 0; i < 50; ++i) {
    vertical.push_back({2 * i, core::CriticalKind::Maximum});
    anterior.push_back({2 * i + 1, core::CriticalKind::Minimum});
  }
  const double offset = core::cycle_offset(vertical, anterior, 100);
  EXPECT_GE(offset, 0.0);
  EXPECT_LE(offset, 1.0);
}

}  // namespace
