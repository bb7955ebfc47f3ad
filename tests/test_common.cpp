// Unit tests for the common substrate: Vec3/Mat3, angles, stats, CDF, RNG,
// CSV and table rendering, error types.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/angles.hpp"
#include "common/cdf.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/mat3.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/vec3.hpp"

using namespace ptrack;

TEST(Vec3, BasicArithmetic) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, (Vec3{-1, -2, -3}));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
}

TEST(Vec3, CrossProductRightHanded) {
  EXPECT_EQ(kAnterior.cross(kLateral), kVertical);
  EXPECT_EQ(kLateral.cross(kVertical), kAnterior);
  EXPECT_EQ(kVertical.cross(kAnterior), kLateral);
}

TEST(Vec3, NormAndNormalize) {
  const Vec3 v{3, 4, 0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm2(), 25.0);
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
  EXPECT_EQ((Vec3{}).normalized(), Vec3{});
}

TEST(Mat3, RotZQuarterTurn) {
  const Mat3 r = Mat3::rot_z(kPi / 2);
  const Vec3 v = r.apply({1, 0, 0});
  EXPECT_NEAR(v.x, 0.0, 1e-12);
  EXPECT_NEAR(v.y, 1.0, 1e-12);
}

TEST(Mat3, TransposeIsInverseForRotations) {
  const Mat3 r = Mat3::from_euler(0.3, -0.5, 1.1);
  const Vec3 v{0.2, -0.7, 1.5};
  const Vec3 roundtrip = r.transposed().apply(r.apply(v));
  EXPECT_NEAR(roundtrip.x, v.x, 1e-12);
  EXPECT_NEAR(roundtrip.y, v.y, 1e-12);
  EXPECT_NEAR(roundtrip.z, v.z, 1e-12);
}

TEST(Mat3, AxisAngleMatchesElementaryRotations) {
  const Mat3 a = Mat3::axis_angle({0, 0, 1}, 0.7);
  const Mat3 b = Mat3::rot_z(0.7);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_NEAR(a.m[i][j], b.m[i][j], 1e-12);
}

TEST(Mat3, AxisAnglePreservesAxis) {
  const Vec3 axis = Vec3{1, 2, -1}.normalized();
  const Mat3 r = Mat3::axis_angle(axis, 1.2345);
  const Vec3 rotated = r.apply(axis);
  EXPECT_NEAR(rotated.x, axis.x, 1e-12);
  EXPECT_NEAR(rotated.y, axis.y, 1e-12);
  EXPECT_NEAR(rotated.z, axis.z, 1e-12);
}

TEST(Angles, Conversions) {
  EXPECT_DOUBLE_EQ(deg2rad(180.0), kPi);
  EXPECT_DOUBLE_EQ(rad2deg(kPi / 2), 90.0);
}

TEST(Angles, WrapPi) {
  EXPECT_NEAR(wrap_pi(3 * kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_pi(-3 * kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_pi(0.5), 0.5, 1e-12);
}

TEST(Angles, Wrap2Pi) {
  EXPECT_NEAR(wrap_2pi(-0.1), kTwoPi - 0.1, 1e-12);
  EXPECT_NEAR(wrap_2pi(kTwoPi + 0.1), 0.1, 1e-12);
}

TEST(Angles, AngleDiff) {
  EXPECT_NEAR(angle_diff(0.1, kTwoPi - 0.1), 0.2, 1e-12);
  EXPECT_NEAR(angle_diff(-0.1, 0.1), -0.2, 1e-12);
}

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(stats::variance(xs), 2.0);
  EXPECT_NEAR(stats::stddev(xs), std::sqrt(2.0), 1e-12);
}

TEST(Stats, MedianAndPercentile) {
  const std::vector<double> odd{5, 1, 3};
  EXPECT_DOUBLE_EQ(stats::median(odd), 3.0);
  const std::vector<double> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(stats::median(even), 2.5);
  EXPECT_DOUBLE_EQ(stats::percentile(even, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile(even, 100.0), 4.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{2, 4, 6, 8};
  EXPECT_NEAR(stats::pearson(a, b), 1.0, 1e-12);
  const std::vector<double> c{8, 6, 4, 2};
  EXPECT_NEAR(stats::pearson(a, c), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSignalIsZero) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> c{7, 7, 7, 7};
  EXPECT_DOUBLE_EQ(stats::pearson(a, c), 0.0);
}

TEST(Stats, DemeanedHasZeroMean) {
  const std::vector<double> xs{10, 20, 30};
  const auto d = stats::demeaned(xs);
  EXPECT_NEAR(stats::mean(d), 0.0, 1e-12);
}

TEST(Stats, PreconditionsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW(stats::mean(empty), InvalidArgument);
  EXPECT_THROW(stats::percentile(std::vector<double>{1.0}, 120.0),
               InvalidArgument);
}

TEST(Stats, RunningMatchesBatch) {
  const std::vector<double> xs{0.5, -1.5, 2.0, 4.5, -3.0, 0.0};
  stats::Running r;
  for (double x : xs) r.add(x);
  EXPECT_EQ(r.count(), xs.size());
  EXPECT_NEAR(r.mean(), stats::mean(xs), 1e-12);
  EXPECT_NEAR(r.variance(), stats::variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(r.min(), -3.0);
  EXPECT_DOUBLE_EQ(r.max(), 4.5);
}

TEST(Stats, RunningEmptyThrows) {
  stats::Running r;
  EXPECT_THROW((void)r.mean(), InvalidArgument);
}

TEST(Cdf, QuantilesAndAt) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const EmpiricalCdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 10.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 5.5);
  EXPECT_DOUBLE_EQ(cdf.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(5.0), 0.5);
  EXPECT_NEAR(cdf.quantile(0.5), 5.5, 1e-12);
}

TEST(Cdf, SeriesIsMonotone) {
  const std::vector<double> xs{3, 1, 4, 1, 5, 9, 2, 6};
  const EmpiricalCdf cdf(xs);
  const auto series = cdf.series(10);
  ASSERT_EQ(series.size(), 10u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].second, series[i - 1].second);
    EXPECT_GE(series[i].first, series[i - 1].first);
  }
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(2);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalZeroStddevIsMean) {
  Rng rng(3);
  EXPECT_DOUBLE_EQ(rng.normal(5.0, 0.0), 5.0);
}

TEST(Rng, ForkDecouplesStreams) {
  Rng a(7);
  Rng fork = a.fork();
  // The fork and the parent produce different streams.
  EXPECT_NE(a.uniform(0, 1), fork.uniform(0, 1));
}

TEST(Csv, RoundTrip) {
  const std::string path = "/tmp/ptrack_test_roundtrip.csv";
  const std::vector<std::string> header{"a", "b"};
  const std::vector<std::vector<double>> rows{{1.5, 2.5}, {-3.25, 1e-6}};
  csv::write(path, header, rows);
  const csv::Document doc = csv::read(path);
  EXPECT_EQ(doc.header, header);
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(doc.rows[1][0], -3.25);
  EXPECT_DOUBLE_EQ(doc.rows[1][1], 1e-6);
  std::remove(path.c_str());
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(csv::read("/nonexistent/definitely/missing.csv"), Error);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<long long>(42)), "42");
  EXPECT_EQ(Table::pct(0.937, 1), "93.7%");
}

TEST(Error, CheckThrowsWithLocation) {
  try {
    check(false, "should fail");
    FAIL() << "check did not throw";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("should fail"), std::string::npos);
  }
}

TEST(Error, ExpectsThrowsInvalidArgument) {
  EXPECT_THROW(expects(false, "bad arg"), InvalidArgument);
  EXPECT_NO_THROW(expects(true, "fine"));
}
