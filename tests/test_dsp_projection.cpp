// Unit tests for the projection frontend: gravity/up estimation and
// vertical/anterior decomposition under arbitrary device mounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/angles.hpp"
#include "common/error.hpp"
#include "common/mat3.hpp"
#include "common/rng.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/projection.hpp"
#include "dsp/workspace.hpp"

using namespace ptrack;

namespace {

/// Specific-force channels (structure of arrays), the projection's input.
struct Channels {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
};

// Builds a specific-force sequence for a device whose world-frame linear
// acceleration oscillates vertically (amp_v at f_v) and along world-x
// (amp_a at f_a), observed in a device frame rotated by `mount`.
Channels make_forces(double fs, double seconds, double amp_v, double f_v,
                     double amp_a, double f_a, const Mat3& mount) {
  const auto n = static_cast<std::size_t>(fs * seconds);
  const Mat3 world_to_device = mount.transposed();
  Channels out;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    const Vec3 accel{amp_a * std::sin(kTwoPi * f_a * t), 0.0,
                     amp_v * std::sin(kTwoPi * f_v * t)};
    const Vec3 f = world_to_device.apply(accel + Vec3{0, 0, kGravity});
    out.x.push_back(f.x);
    out.y.push_back(f.y);
    out.z.push_back(f.z);
  }
  return out;
}

/// Constant channels: a device at rest, n samples.
Channels resting(std::size_t n) {
  return {std::vector<double>(n, 0.0), std::vector<double>(n, 0.0),
          std::vector<double>(n, kGravity)};
}

/// A tilted wrist in gait-like motion: vertical bounce and a forward swing
/// at incommensurate frequencies plus sensor noise, n samples at fs.
Channels wrist_forces(std::size_t n, double fs, std::uint64_t seed) {
  Rng rng(seed);
  const Mat3 world_to_device =
      Mat3::from_euler(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6),
                       rng.uniform(-3.0, 3.0))
          .transposed();
  Channels out;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    const Vec3 accel{3.0 * std::sin(kTwoPi * 0.93 * t + 0.4),
                     0.7 * std::sin(kTwoPi * 1.31 * t),
                     2.0 * std::sin(kTwoPi * 1.86 * t + 1.1)};
    const Vec3 noise{rng.normal(0.0, 0.2), rng.normal(0.0, 0.2),
                     rng.normal(0.0, 0.2)};
    const Vec3 f =
        world_to_device.apply(accel + noise + Vec3{0.0, 0.0, kGravity});
    out.x.push_back(f.x);
    out.y.push_back(f.y);
    out.z.push_back(f.z);
  }
  return out;
}

/// Angle between two directions, accurate near zero (acos is not).
double angle_between(const Vec3& a, const Vec3& b) {
  return std::atan2(a.cross(b).norm(), a.dot(b));
}

/// The gravity estimate by its definition: normalize the per-channel mean
/// of the zero-phase-filtered, reflect-padded channel.
Vec3 filtered_mean_up(const Channels& c, double fs) {
  const auto cascade =
      dsp::butterworth_lowpass(2, std::min(0.3, 0.45 * fs), fs);
  const auto mean_of = [&](const std::vector<double>& ch) {
    double sum = 0.0;
    for (double v : dsp::filtfilt(cascade, ch, 64)) sum += v;
    return sum / static_cast<double>(ch.size());
  };
  return Vec3{mean_of(c.x), mean_of(c.y), mean_of(c.z)}.normalized();
}

/// The principal horizontal direction by its definition: the residual
/// f - up (f.up) in the (e1, e2) basis, a two-pass 2x2 covariance, and the
/// leading eigenvector with the estimator's degenerate-case rules.
Vec3 residual_covariance_direction(const Channels& c, const Vec3& up) {
  const Vec3 ref = std::abs(up.z) < 0.9 ? kVertical : kAnterior;
  const Vec3 e1 = up.cross(ref).normalized();
  const Vec3 e2 = up.cross(e1).normalized();
  const std::size_t n = c.x.size();
  std::vector<double> a(n);
  std::vector<double> b(n);
  double m1 = 0.0;
  double m2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 f{c.x[i], c.y[i], c.z[i]};
    const Vec3 residual = f - up * f.dot(up);
    a[i] = residual.dot(e1);
    b[i] = residual.dot(e2);
    m1 += a[i];
    m2 += b[i];
  }
  m1 /= static_cast<double>(n);
  m2 /= static_cast<double>(n);
  double s11 = 0.0;
  double s12 = 0.0;
  double s22 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s11 += (a[i] - m1) * (a[i] - m1);
    s12 += (a[i] - m1) * (b[i] - m2);
    s22 += (b[i] - m2) * (b[i] - m2);
  }
  if (std::abs(s12) <= 1e-12) return s11 >= s22 ? e1 : e2;
  const double tr = s11 + s22;
  const double det = s11 * s22 - s12 * s12;
  const double lambda =
      0.5 * tr + std::sqrt(std::max(0.25 * tr * tr - det, 0.0));
  return (e1 * (lambda - s22) + e2 * s12).normalized();
}

Vec3 estimate_up(const Channels& c, double fs) {
  dsp::Workspace ws;
  return dsp::estimate_up(c.x, c.y, c.z, fs, 0.3, ws);
}

dsp::ProjectedSignal project(const Channels& c, double fs) {
  return dsp::project(c.x, c.y, c.z, fs);
}

}  // namespace

TEST(EstimateUp, IdentityMount) {
  const auto forces =
      make_forces(100.0, 4.0, 2.0, 2.0, 3.0, 1.0, Mat3::identity());
  const Vec3 up = estimate_up(forces, 100.0);
  EXPECT_NEAR(up.z, 1.0, 1e-3);
}

TEST(EstimateUp, TiltedMountRecovered) {
  const Mat3 mount = Mat3::from_euler(0.3, -0.4, 1.0);
  const auto forces = make_forces(100.0, 4.0, 2.0, 2.0, 3.0, 1.0, mount);
  const Vec3 up = estimate_up(forces, 100.0);
  // True up in the device frame is mount^T * z.
  const Vec3 expected = mount.transposed().apply(kVertical);
  EXPECT_NEAR(up.dot(expected), 1.0, 1e-3);
}

TEST(EstimateUp, RequiresSamples) {
  EXPECT_THROW(estimate_up(resting(2), 100.0), InvalidArgument);
}

TEST(EstimateUp, MatchesFilteredMeanReference) {
  // The weighted-sum estimate against its definition, across pad-clamped
  // (n <= 64), odd, block-tail and steady-window lengths.
  dsp::Workspace ws;
  std::uint64_t seed = 41;
  for (double fs : {50.0, 100.0, 200.0}) {
    for (std::size_t n : {4, 5, 16, 64, 65, 129, 650, 2000, 4500}) {
      SCOPED_TRACE(testing::Message() << "fs " << fs << " n " << n);
      const Channels c = wrist_forces(n, fs, ++seed);
      const Vec3 up = dsp::estimate_up(c.x, c.y, c.z, fs, 0.3, ws);
      EXPECT_LT(angle_between(up, filtered_mean_up(c, fs)), 1e-12);

      // A precomputed table gives the same estimate, bit for bit.
      const dsp::GravityWeights table(n, fs, 0.3);
      const Vec3 up_table = dsp::estimate_up(c.x, c.y, c.z, table.weights());
      EXPECT_EQ(up_table.x, up.x);
      EXPECT_EQ(up_table.y, up.y);
      EXPECT_EQ(up_table.z, up.z);
    }
  }
}

TEST(EstimateUp, SharedTableIsOnePerKey) {
  const auto a = dsp::shared_gravity_weights(2000, 100.0, 0.3);
  const auto b = dsp::shared_gravity_weights(2000, 100.0, 0.3);
  const auto c = dsp::shared_gravity_weights(2000, 50.0, 0.3);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  ASSERT_EQ(a->size(), 2000u);
  // An all-ones channel maps to the filtered mean of ones, which is below
  // 1: the zero-state passes taper the window's ends. That taper is why a
  // plain mean (all weights 1/n) is a different estimator.
  double sum = 0.0;
  for (double w : a->weights()) sum += w;
  double ref = 0.0;
  const auto cascade = dsp::butterworth_lowpass(2, 0.3, 100.0);
  for (double v : dsp::filtfilt(cascade, std::vector<double>(2000, 1.0), 64)) {
    ref += v;
  }
  EXPECT_NEAR(sum, ref / 2000.0, 1e-12);
  EXPECT_LT(sum, 0.999);
}

TEST(EstimateUp, SharedRegistryBoundsUnheldBytes) {
  // A stream's warm-up hops request one table per pinned history length:
  // a 1 s-hop ladder at 100 Hz is revisited by every stream at that rate,
  // so a second pass computes nothing new.
  const auto held = dsp::shared_gravity_weights(2000, 100.0, 0.3);
  const auto ladder = [] {
    for (std::size_t n = 600; n < 2000; n += 100) {
      (void)dsp::shared_gravity_weights(n, 100.0, 0.3);
    }
  };
  ladder();
  const auto after_first = dsp::gravity_registry_stats();
  ladder();
  EXPECT_EQ(dsp::gravity_registry_stats().tables, after_first.tables);

  // Hostile HELLOs: many rates, each with its own ladder of lengths. The
  // tables nobody holds stay within the byte budget throughout, and a
  // table someone holds is never dropped.
  for (const double fs : {25.0, 50.0, 64.0, 99.5, 100.0, 128.0, 200.0,
                          400.0, 1000.0}) {
    for (std::size_t k = 1; k <= 40; ++k) {
      const auto n = static_cast<std::size_t>(static_cast<double>(k) * fs / 2);
      if (n < 4) continue;
      (void)dsp::shared_gravity_weights(n, fs, 0.3);
      const auto stats = dsp::gravity_registry_stats();
      EXPECT_LE(stats.unheld_bytes, dsp::kGravityRegistryUnheldBytes)
          << "fs " << fs << " n " << n;
      EXPECT_LE(stats.bytes,
                dsp::kGravityRegistryUnheldBytes + held->bytes());
    }
  }
  EXPECT_EQ(dsp::shared_gravity_weights(2000, 100.0, 0.3).get(), held.get());
}

TEST(PrincipalHorizontal, MomentsMatchResidualCovariance) {
  dsp::Workspace ws;
  // General position: a tilted walking wrist.
  for (std::size_t n : {16, 129, 2000}) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    const Channels c = wrist_forces(n, 100.0, 900 + n);
    const Vec3 up = estimate_up(c, 100.0);
    const Vec3 dir = dsp::principal_horizontal_direction(c.x, c.y, c.z, up);
    EXPECT_LT(angle_between(dir, residual_covariance_direction(c, up)), 1e-9);
    EXPECT_NEAR(dir.dot(up), 0.0, 1e-12);
  }

  // Degenerate branches, |s12| <= 1e-12. With up exactly vertical the
  // basis is e1 = +y, e2 = -x, and motion along one of them makes the
  // cross moment exactly zero.
  const std::size_t n = 300;
  const Channels along_y{std::vector<double>(n, 0.0), {},
                         std::vector<double>(n, kGravity)};
  Channels swing_y = along_y;
  Channels swing_x = along_y;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = 2.0 * std::sin(kTwoPi * static_cast<double>(i) / 97.0);
    swing_y.y.push_back(v);
    swing_x.y.push_back(0.0);
    swing_x.x[i] = v;
  }
  // s11 >= s22: the swing is along e1.
  const Vec3 dir_y = dsp::principal_horizontal_direction(
      swing_y.x, swing_y.y, swing_y.z, kVertical);
  EXPECT_EQ(dir_y, (Vec3{0.0, 1.0, 0.0}));
  EXPECT_EQ(dir_y, residual_covariance_direction(swing_y, kVertical));
  // s11 < s22: the swing is along e2.
  const Vec3 dir_x = dsp::principal_horizontal_direction(
      swing_x.x, swing_x.y, swing_x.z, kVertical);
  EXPECT_EQ(dir_x, (Vec3{-1.0, 0.0, 0.0}));
  EXPECT_EQ(dir_x, residual_covariance_direction(swing_x, kVertical));

  // A resting device: every moment vanishes, so the s11 >= s22 rule picks
  // e1. Upright, the reference agrees exactly; tilted, the reference's
  // residual mean rounds away from its samples and its near-zero moments
  // pick arbitrarily, while the moments about the first sample are exactly
  // zero and the estimator still answers e1, a unit horizontal direction.
  const Channels upright = resting(n);
  const Vec3 dir_rest = dsp::principal_horizontal_direction(
      upright.x, upright.y, upright.z, kVertical);
  EXPECT_EQ(dir_rest, (Vec3{0.0, 1.0, 0.0}));
  EXPECT_EQ(dir_rest, residual_covariance_direction(upright, kVertical));
  const Vec3 tilted_f =
      Mat3::from_euler(0.3, -0.2, 0.7).transposed().apply(
          Vec3{0.0, 0.0, kGravity});
  const Channels tilted{std::vector<double>(n, tilted_f.x),
                        std::vector<double>(n, tilted_f.y),
                        std::vector<double>(n, tilted_f.z)};
  const Vec3 tilted_up = estimate_up(tilted, 100.0);
  const Vec3 tilted_dir = dsp::principal_horizontal_direction(
      tilted.x, tilted.y, tilted.z, tilted_up);
  const Vec3 ref = std::abs(tilted_up.z) < 0.9 ? kVertical : kAnterior;
  const Vec3 e1 = tilted_up.cross(ref).normalized();
  EXPECT_LT(angle_between(tilted_dir, e1), 1e-15);
  EXPECT_NEAR(tilted_dir.norm(), 1.0, 1e-15);
  EXPECT_NEAR(tilted_dir.dot(tilted_up), 0.0, 1e-15);
}

TEST(PrincipalHorizontal, FindsOscillationAxis) {
  const auto forces =
      make_forces(100.0, 4.0, 1.0, 2.0, 4.0, 1.0, Mat3::identity());
  const Vec3 up = estimate_up(forces, 100.0);
  const Vec3 fwd = dsp::principal_horizontal_direction(
      forces.x, forces.y, forces.z, up);
  // Horizontal oscillation is along world-x; sign is arbitrary.
  EXPECT_NEAR(std::abs(fwd.x), 1.0, 0.02);
  EXPECT_NEAR(fwd.z, 0.0, 0.02);
}

TEST(Project, RecoversVerticalAmplitudeUnderMount) {
  const Mat3 mount = Mat3::from_euler(-0.25, 0.35, 2.2);
  const double amp_v = 2.0;
  const double amp_a = 3.5;
  const auto forces = make_forces(100.0, 6.0, amp_v, 2.0, amp_a, 1.0, mount);
  const dsp::ProjectedSignal proj = project(forces, 100.0);

  double max_v = 0.0;
  double max_a = 0.0;
  for (std::size_t i = 100; i + 100 < proj.vertical.size(); ++i) {
    max_v = std::max(max_v, std::abs(proj.vertical[i]));
    max_a = std::max(max_a, std::abs(proj.anterior[i]));
  }
  EXPECT_NEAR(max_v, amp_v, 0.1);
  EXPECT_NEAR(max_a, amp_a, 0.1);
}

TEST(Project, LateralIsSmallForPlanarMotion) {
  const auto forces =
      make_forces(100.0, 4.0, 2.0, 2.0, 3.0, 1.0, Mat3::identity());
  const dsp::ProjectedSignal proj = project(forces, 100.0);
  double max_l = 0.0;
  for (double v : proj.lateral) max_l = std::max(max_l, std::abs(v));
  EXPECT_LT(max_l, 0.2);
}

TEST(Project, StationaryDeviceAllChannelsQuiet) {
  const dsp::ProjectedSignal proj = project(resting(512), 100.0);
  for (double v : proj.vertical) EXPECT_NEAR(v, 0.0, 1e-9);
}
