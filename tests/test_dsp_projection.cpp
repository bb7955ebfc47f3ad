// Unit tests for the projection frontend: gravity/up estimation and
// vertical/anterior decomposition under arbitrary device mounting.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/angles.hpp"
#include "common/error.hpp"
#include "common/mat3.hpp"
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

Vec3 estimate_up(const Channels& c, double fs) {
  dsp::Workspace ws;
  return dsp::estimate_up<double>(c.x, c.y, c.z, fs, 0.3, ws);
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

TEST(PrincipalHorizontal, FindsOscillationAxis) {
  const auto forces =
      make_forces(100.0, 4.0, 1.0, 2.0, 4.0, 1.0, Mat3::identity());
  const Vec3 up = estimate_up(forces, 100.0);
  const Vec3 fwd = dsp::principal_horizontal_direction<double>(
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
