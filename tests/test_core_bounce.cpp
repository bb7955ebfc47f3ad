// Unit tests for the Eq. (3)-(5) bounce solver and the Eq. (2) stride
// model — including forward-model round trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/bounce.hpp"

using namespace ptrack;

namespace {

// Forward model: given true b, arm extremes theta1/theta2 and arm length m,
// produce the measurements (h1, h2, d) PTrack would see.
struct Measurement {
  double h1;
  double h2;
  double d;
};

Measurement forward(double b, double m, double theta1, double theta2) {
  const double r1 = m * (1.0 - std::cos(theta1));
  const double r2 = m * (1.0 - std::cos(theta2));
  Measurement out;
  out.h1 = r1 - b;
  out.h2 = r2 - b;
  out.d = m * std::sin(theta1) + m * std::sin(theta2);
  return out;
}

}  // namespace

TEST(BounceSolver, RoundTripSymmetricSwing) {
  const double m = 0.70;
  const double b = 0.07;
  const Measurement meas = forward(b, m, 0.38, 0.38);
  const core::BounceSolution sol = core::solve_bounce(meas.h1, meas.h2, meas.d, m);
  EXPECT_TRUE(sol.valid);
  EXPECT_NEAR(sol.bounce, b, 1e-6);
}

TEST(BounceSolver, RoundTripAsymmetricSwing) {
  const double m = 0.65;
  const double b = 0.055;
  const Measurement meas = forward(b, m, 0.30, 0.45);
  const core::BounceSolution sol = core::solve_bounce(meas.h1, meas.h2, meas.d, m);
  EXPECT_TRUE(sol.valid);
  EXPECT_NEAR(sol.bounce, b, 1e-6);
}

TEST(BounceSolver, RoundTripSweep) {
  // Property sweep over plausible geometry.
  for (double m : {0.55, 0.70, 0.85}) {
    for (double b : {0.03, 0.06, 0.10}) {
      for (double theta : {0.25, 0.40, 0.55}) {
        const Measurement meas = forward(b, m, theta, theta);
        const core::BounceSolution sol =
            core::solve_bounce(meas.h1, meas.h2, meas.d, m);
        EXPECT_TRUE(sol.valid) << "m=" << m << " b=" << b << " theta=" << theta;
        EXPECT_NEAR(sol.bounce, b, 1e-6);
      }
    }
  }
}

TEST(BounceSolver, EarlyStopMatchesTheFullBisection) {
  // The solver stops once an iteration leaves its bracket unchanged; the
  // full 80-step bisection over the same bracket must give the same bits.
  const auto full = [](double h1, double h2, double d, double m) {
    double lo = std::max({0.0, -h1, -h2});
    double hi = std::min(m - h1, m - h2);
    for (int iter = 0; iter < 80; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (core::sweep_width(mid, h1, h2, m) - d < 0.0) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return 0.5 * (lo + hi);
  };
  int solved = 0;
  for (double m : {0.55, 0.63, 0.70, 0.85}) {
    for (double b : {0.0, 1e-4, 0.004, 0.03, 0.061, 0.10}) {
      for (double t1 : {0.05, 0.25, 0.40, 0.55}) {
        for (double t2 : {0.05, 0.30, 0.45}) {
          const Measurement meas = forward(b, m, t1, t2);
          const core::BounceSolution sol =
              core::solve_bounce(meas.h1, meas.h2, meas.d, m);
          if (!sol.valid) continue;
          ++solved;
          EXPECT_EQ(sol.bounce, full(meas.h1, meas.h2, meas.d, m))
              << "m=" << m << " b=" << b << " t1=" << t1 << " t2=" << t2;
        }
      }
    }
  }
  EXPECT_GT(solved, 200);
}

TEST(BounceSolver, SweepWidthIsMonotoneInBounce) {
  const double m = 0.7;
  const double h1 = -0.02;
  const double h2 = -0.018;
  double prev = core::sweep_width(0.02, h1, h2, m);
  for (double b = 0.03; b < 0.3; b += 0.01) {
    const double cur = core::sweep_width(b, h1, h2, m);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(BounceSolver, TooLargeTravelClampsInvalid) {
  // d larger than the arm can produce for any b: no root, invalid.
  const core::BounceSolution sol = core::solve_bounce(-0.02, -0.02, 5.0, 0.7);
  EXPECT_FALSE(sol.valid);
}

TEST(BounceSolver, TooSmallTravelClampsInvalid) {
  // d smaller than the b=0 width: no root on the branch, invalid.
  const Measurement meas = forward(0.07, 0.7, 0.38, 0.38);
  const core::BounceSolution sol =
      core::solve_bounce(meas.h1 + 0.2, meas.h2 + 0.2, 1e-3, 0.7);
  EXPECT_FALSE(sol.valid);
  EXPECT_GE(sol.bounce, 0.0);
}

TEST(BounceSolver, Preconditions) {
  EXPECT_THROW(core::solve_bounce(0.0, 0.0, 0.5, 0.0), InvalidArgument);
  EXPECT_THROW(core::solve_bounce(0.0, 0.0, 0.0, 0.7), InvalidArgument);
}

TEST(StrideFromBounce, MatchesClosedForm) {
  const double l = 0.9;
  const double k = 2.0;
  const double b = 0.07;
  const double expected = k * std::sqrt(l * l - (l - b) * (l - b));
  EXPECT_DOUBLE_EQ(core::stride_from_bounce(b, l, k), expected);
}

TEST(StrideFromBounce, ClampsBounce) {
  EXPECT_DOUBLE_EQ(core::stride_from_bounce(-0.1, 0.9, 2.0), 0.0);
  // b = l: stride = k*l (max of the model).
  EXPECT_DOUBLE_EQ(core::stride_from_bounce(2.0, 0.9, 2.0), 1.8);
}

TEST(StrideFromBounce, MonotoneInBounce) {
  double prev = 0.0;
  for (double b = 0.0; b <= 0.9; b += 0.05) {
    const double s = core::stride_from_bounce(b, 0.9, 2.0);
    EXPECT_GE(s, prev);
    prev = s;
  }
}

TEST(StrideFromBounce, Preconditions) {
  EXPECT_THROW(core::stride_from_bounce(0.05, 0.0, 2.0), InvalidArgument);
  EXPECT_THROW(core::stride_from_bounce(0.05, 0.9, 0.0), InvalidArgument);
}
