// Unit tests for critical-point extraction and the Eq. (1) offset metric.

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.hpp"
#include "core/critical_points.hpp"
#include "core/offset_metric.hpp"

using namespace ptrack;
using core::CriticalKind;
using core::CriticalPoint;

namespace {

std::vector<double> sine(double cycles, std::size_t n, double phase = 0.0) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::sin(kTwoPi * cycles * static_cast<double>(i) /
                          static_cast<double>(n) +
                      phase);
  }
  return out;
}

}  // namespace

TEST(CriticalPoints, SineExtremaOnly) {
  const auto xs = sine(2.0, 200);
  const auto pts = core::critical_points(xs, {}, /*include_zeros=*/false);
  // 2 cycles -> 2 maxima + 2 minima.
  EXPECT_EQ(pts.size(), 4u);
  for (const auto& p : pts) {
    EXPECT_NE(p.kind, CriticalKind::Zero);
  }
}

TEST(CriticalPoints, SineWithZeros) {
  const auto xs = sine(2.0, 200);
  const auto with = core::critical_points(xs, {}, true);
  const auto without = core::critical_points(xs, {}, false);
  EXPECT_GT(with.size(), without.size());
}

TEST(CriticalPoints, SortedByIndex) {
  const auto xs = sine(3.0, 300);
  const auto pts = core::critical_points(xs);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i - 1].index, pts[i].index);
  }
}

TEST(CriticalPoints, DcOffsetIgnored) {
  auto xs = sine(2.0, 200);
  for (double& v : xs) v += 100.0;  // huge DC
  const auto pts = core::critical_points(xs, {}, true);
  bool has_zero = false;
  for (const auto& p : pts) has_zero |= p.kind == CriticalKind::Zero;
  EXPECT_TRUE(has_zero);  // zeros found despite the DC offset (demeaned)
}

TEST(CriticalPoints, TinyCycleEmpty) {
  const std::vector<double> xs{1.0, 2.0, 1.0};
  EXPECT_TRUE(core::critical_points(xs).empty());
}

TEST(CriticalPoints, AbsoluteFloorFiltersWeakExtrema) {
  auto xs = sine(2.0, 200);
  for (double& v : xs) v *= 0.1;  // weak signal
  core::CriticalPointOptions opt;
  opt.min_abs_prominence = 0.5;
  const auto pts = core::critical_points(xs, opt, false);
  EXPECT_TRUE(pts.empty());
}

TEST(OffsetMetric, PerfectAlignmentIsZero) {
  const std::vector<CriticalPoint> v{{10, CriticalKind::Maximum},
                                     {30, CriticalKind::Minimum}};
  const std::vector<CriticalPoint> a{{10, CriticalKind::Zero},
                                     {30, CriticalKind::Maximum}};
  EXPECT_DOUBLE_EQ(core::cycle_offset(v, a, 100), 0.0);
}

TEST(OffsetMetric, EmptyQuerySetIsZero) {
  const std::vector<CriticalPoint> a{{10, CriticalKind::Zero}};
  EXPECT_DOUBLE_EQ(core::cycle_offset({}, a, 100), 0.0);
}

TEST(OffsetMetric, EmptyMatchSetIsMaximal) {
  const std::vector<CriticalPoint> v{{10, CriticalKind::Maximum}};
  EXPECT_DOUBLE_EQ(core::cycle_offset(v, {}, 100), 1.0);
}

TEST(OffsetMetric, GrowsWithMisalignment) {
  const std::vector<CriticalPoint> v{{20, CriticalKind::Maximum},
                                     {60, CriticalKind::Minimum}};
  const std::vector<CriticalPoint> near{{22, CriticalKind::Zero},
                                        {63, CriticalKind::Maximum}};
  const std::vector<CriticalPoint> far{{30, CriticalKind::Zero},
                                       {75, CriticalKind::Maximum}};
  EXPECT_LT(core::cycle_offset(v, near, 100), core::cycle_offset(v, far, 100));
}

TEST(OffsetMetric, WeightingUsesGapToPreviousPoint) {
  // Two queries with the same match distance: the one after a long quiet
  // gap carries more weight.
  const std::vector<CriticalPoint> early{{5, CriticalKind::Maximum}};
  const std::vector<CriticalPoint> late{{80, CriticalKind::Maximum}};
  const std::vector<CriticalPoint> match_early{{10, CriticalKind::Zero}};
  const std::vector<CriticalPoint> match_late{{85, CriticalKind::Zero}};
  const double o_early = core::cycle_offset(early, match_early, 100);
  const double o_late = core::cycle_offset(late, match_late, 100);
  EXPECT_GT(o_late, o_early);
}

TEST(OffsetMetric, WeightCapBoundsQuietGapInfluence) {
  const std::vector<CriticalPoint> late{{90, CriticalKind::Maximum}};
  const std::vector<CriticalPoint> match{{80, CriticalKind::Zero}};
  // The 90-sample quiet gap would weigh 0.9; the cap holds it at 0.35.
  const double capped = core::cycle_offset(late, match, 100);
  EXPECT_LT(capped, 0.9 * 10.0 / 100.0);
  EXPECT_DOUBLE_EQ(capped, core::kWeightCap * 10.0 / 100.0);
}

TEST(OffsetMetric, UnweightedVariant) {
  const std::vector<CriticalPoint> v{{50, CriticalKind::Maximum}};
  const std::vector<CriticalPoint> a{{55, CriticalKind::Zero}};
  EXPECT_DOUBLE_EQ(core::cycle_offset(v, a, 100, /*use_weighting=*/false),
                   5.0 / 100.0);
}

TEST(OffsetMetric, SynchronizedSinesScoreLow) {
  // Rigid motion surrogate: vertical at 2f, anterior at f, phase-locked as
  // in a pendulum — vertical extrema land on anterior extrema/zeros.
  const std::size_t n = 200;
  std::vector<double> vertical(n);
  std::vector<double> anterior(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phi = kTwoPi * static_cast<double>(i) / static_cast<double>(n);
    vertical[i] = std::cos(2.0 * phi);
    anterior[i] = -std::sin(phi);
  }
  const auto vq = core::critical_points(vertical, {}, false);
  const auto am = core::critical_points(anterior, {}, true);
  EXPECT_LT(core::cycle_offset(vq, am, n), 0.02);
}
