// Unit tests for biquad/Butterworth filtering, zero-phase filtering and
// sliding-window smoothers.

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/biquad.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/moving.hpp"

using namespace ptrack;

namespace {

std::vector<double> sine(double freq, double fs, double seconds,
                         double amp = 1.0, double phase = 0.0) {
  const auto n = static_cast<std::size_t>(seconds * fs);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = amp * std::sin(kTwoPi * freq * static_cast<double>(i) / fs + phase);
  }
  return out;
}

double steady_state_amplitude(const std::vector<double>& ys) {
  // Skip the first half (transient), take the max of the rest.
  double amp = 0.0;
  for (std::size_t i = ys.size() / 2; i < ys.size(); ++i) {
    amp = std::max(amp, std::abs(ys[i]));
  }
  return amp;
}

}  // namespace

TEST(Biquad, LowpassPassesDc) {
  dsp::Biquad f(dsp::lowpass(3.0, 100.0));
  double y = 0.0;
  for (int i = 0; i < 500; ++i) y = f.step(1.0);
  EXPECT_NEAR(y, 1.0, 1e-6);
}

TEST(Biquad, LowpassAttenuatesHighFrequency) {
  dsp::Biquad f(dsp::lowpass(3.0, 100.0));
  const auto ys = f.process(sine(30.0, 100.0, 4.0));
  EXPECT_LT(steady_state_amplitude(ys), 0.05);
}

TEST(Biquad, ResetClearsState) {
  dsp::Biquad f(dsp::lowpass(3.0, 100.0));
  for (int i = 0; i < 100; ++i) f.step(5.0);
  f.reset();
  dsp::Biquad fresh(dsp::lowpass(3.0, 100.0));
  EXPECT_DOUBLE_EQ(f.step(1.0), fresh.step(1.0));
}

TEST(Biquad, DesignPreconditions) {
  EXPECT_THROW(dsp::lowpass(60.0, 100.0), InvalidArgument);   // above Nyquist
  EXPECT_THROW(dsp::lowpass(-1.0, 100.0), InvalidArgument);
  EXPECT_THROW(dsp::lowpass(3.0, 100.0, 0.0), InvalidArgument);
}

TEST(Butterworth, OrderIncreasesRolloff) {
  const double fs = 100.0;
  auto second = dsp::butterworth_lowpass(2, 3.0, fs);
  auto sixth = dsp::butterworth_lowpass(6, 3.0, fs);
  const auto input = sine(9.0, fs, 6.0);
  const double a2 = steady_state_amplitude(second.process(input));
  const double a6 = steady_state_amplitude(sixth.process(input));
  EXPECT_LT(a6, a2);
  EXPECT_LT(a6, 0.02);
}

TEST(Butterworth, CutoffIsMinusThreeDb) {
  const double fs = 100.0;
  auto f = dsp::butterworth_lowpass(4, 5.0, fs);
  const double a = steady_state_amplitude(f.process(sine(5.0, fs, 8.0)));
  EXPECT_NEAR(a, 1.0 / std::sqrt(2.0), 0.05);
}

TEST(Butterworth, OddOrderWorks) {
  auto f = dsp::butterworth_lowpass(5, 3.0, 100.0);
  EXPECT_EQ(f.order() >= 5, true);
  double y = 0.0;
  for (int i = 0; i < 800; ++i) y = f.step(1.0);
  EXPECT_NEAR(y, 1.0, 1e-4);
}

TEST(Butterworth, InvalidOrderThrows) {
  EXPECT_THROW(dsp::butterworth_lowpass(0, 3.0, 100.0), InvalidArgument);
  EXPECT_THROW(dsp::butterworth_lowpass(13, 3.0, 100.0), InvalidArgument);
}

TEST(Filtfilt, ZeroPhaseKeepsPeakPosition) {
  // A Gaussian bump must not move under zero-phase filtering.
  const double fs = 100.0;
  std::vector<double> xs(400, 0.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double t = (static_cast<double>(i) - 200.0) / 20.0;
    xs[i] = std::exp(-t * t);
  }
  const auto ys = dsp::zero_phase_lowpass(xs, 5.0, fs, 4);
  std::size_t peak_in = 0;
  std::size_t peak_out = 0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] > xs[peak_in]) peak_in = i;
    if (ys[i] > ys[peak_out]) peak_out = i;
  }
  EXPECT_NEAR(static_cast<double>(peak_out), static_cast<double>(peak_in), 1.0);
}

TEST(Filtfilt, PassbandSineSurvives) {
  const auto xs = sine(1.0, 100.0, 6.0);
  const auto ys = dsp::zero_phase_lowpass(xs, 5.0, 100.0, 4);
  // Compare in the middle region away from edges.
  double max_err = 0.0;
  for (std::size_t i = 100; i + 100 < xs.size(); ++i) {
    max_err = std::max(max_err, std::abs(xs[i] - ys[i]));
  }
  EXPECT_LT(max_err, 0.02);
}

TEST(Filtfilt, EmptyInputYieldsEmpty) {
  const auto cascade = dsp::butterworth_lowpass(4, 3.0, 100.0);
  EXPECT_TRUE(dsp::filtfilt(cascade, std::vector<double>{}).empty());
}

TEST(Filtfilt, ShortInputHandled) {
  const auto cascade = dsp::butterworth_lowpass(2, 3.0, 100.0);
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_EQ(dsp::filtfilt(cascade, xs).size(), xs.size());
}

TEST(MovingAverage, SmoothsConstantExactly) {
  const std::vector<double> xs(50, 3.5);
  for (double v : dsp::moving_average(xs, 7)) EXPECT_DOUBLE_EQ(v, 3.5);
}

TEST(MovingAverage, CenterOfLinearRampIsExact) {
  std::vector<double> xs(21);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  const auto ys = dsp::moving_average(xs, 5);
  // Away from edges, the centered average of a linear ramp equals it.
  for (std::size_t i = 2; i + 2 < xs.size(); ++i) {
    EXPECT_NEAR(ys[i], xs[i], 1e-12);
  }
}

TEST(MovingMedian, RemovesImpulse) {
  std::vector<double> xs(21, 1.0);
  xs[10] = 100.0;
  const auto ys = dsp::moving_median(xs, 5);
  EXPECT_DOUBLE_EQ(ys[10], 1.0);
}

TEST(MovingMedian, WindowOneIsIdentity) {
  const std::vector<double> xs{3, 1, 4, 1, 5};
  EXPECT_EQ(dsp::moving_median(xs, 1), xs);
}
