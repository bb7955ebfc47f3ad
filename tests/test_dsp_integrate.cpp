// Unit tests for integration — especially the mean-removal double
// integration PTrack's displacement measurements rest on.

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.hpp"
#include "dsp/integrate.hpp"
#include "dsp/resample.hpp"

using namespace ptrack;

TEST(Cumtrapz, ConstantAccelGivesLinearVelocity) {
  const std::vector<double> a(101, 2.0);
  const auto v = dsp::cumtrapz(a, 0.01);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_NEAR(v.back(), 2.0 * 1.0, 1e-9);  // 2 m/s^2 over 1 s
}

TEST(Cumtrapz, SizePreserved) {
  const std::vector<double> a{1, 2, 3};
  EXPECT_EQ(dsp::cumtrapz(a, 0.1).size(), 3u);
}

TEST(IntegrateTwice, QuadraticPosition) {
  const std::vector<double> a(201, 1.0);  // 1 m/s^2 for 2 s
  const auto k = dsp::integrate_twice(a, 0.01);
  EXPECT_NEAR(k.position.back(), 0.5 * 2.0 * 2.0, 0.01);  // x = a t^2 / 2
}

TEST(MeanRemoval, RecoversDisplacementUnderBias) {
  // True motion: half sine of velocity => zero velocity at both ends,
  // net displacement = integral of velocity. Add a constant accel bias.
  const double fs = 100.0;
  const double dt = 1.0 / fs;
  const double T = 0.5;
  const auto n = static_cast<std::size_t>(T * fs);
  std::vector<double> accel(n);
  const double v_peak = 1.2;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * dt;
    // v(t) = v_peak * sin(pi t / T) -> a = v_peak * pi/T * cos(pi t / T)
    accel[i] = v_peak * kPi / T * std::cos(kPi * t / T);
  }
  const double true_disp = v_peak * 2.0 * T / kPi;  // integral of v

  // Without bias both approaches agree.
  EXPECT_NEAR(dsp::net_displacement(accel, dt), true_disp, 0.025);

  // A 0.2 m/s^2 bias ruins the naive integral but not mean removal.
  std::vector<double> biased = accel;
  for (double& a : biased) a += 0.2;
  const double naive = dsp::integrate_twice(biased, dt).position.back();
  const double corrected = dsp::net_displacement(biased, dt);
  EXPECT_NEAR(corrected, true_disp, 0.025);
  EXPECT_GT(std::abs(naive - true_disp), std::abs(corrected - true_disp));
}

TEST(MeanRemoval, PeakToPeakOfBounce) {
  // Vertical bounce z = (b/2)(1 - cos(2 pi t / T)): p2p displacement = b.
  const double fs = 100.0;
  const double T = 0.5;
  const double b = 0.07;
  const auto n = static_cast<std::size_t>(T * fs) + 1;
  std::vector<double> accel(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    const double w = kTwoPi / T;
    accel[i] = 0.5 * b * w * w * std::cos(w * t);
  }
  EXPECT_NEAR(dsp::peak_to_peak_displacement(accel, 1.0 / fs), b, 0.012);
}

TEST(MeanRemoval, TinySegmentsReturnZero) {
  const std::vector<double> one{1.0};
  EXPECT_DOUBLE_EQ(dsp::net_displacement(one, 0.01), 0.0);
  EXPECT_DOUBLE_EQ(dsp::peak_to_peak_displacement(one, 0.01), 0.0);
}

TEST(Resample, DownUpRoundTripPreservesShape) {
  std::vector<double> xs;
  for (int i = 0; i < 400; ++i) {
    xs.push_back(std::sin(kTwoPi * static_cast<double>(i) / 80.0));
  }
  const auto down = dsp::resample_linear(xs, 400.0, 100.0);
  const auto up = dsp::resample_linear(down, 100.0, 400.0);
  for (std::size_t i = 10; i + 10 < up.size() && i < xs.size(); ++i) {
    EXPECT_NEAR(up[i], xs[i], 0.02);
  }
}

TEST(Resample, SampleAtClampsOutside) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(dsp::sample_at(xs, 10.0, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(dsp::sample_at(xs, 10.0, 99.0), 3.0);
  EXPECT_NEAR(dsp::sample_at(xs, 10.0, 0.05), 1.5, 1e-12);
}
