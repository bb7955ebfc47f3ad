// Unit tests for FFT/spectral helpers and correlation utilities.

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"

using namespace ptrack;

namespace {

std::vector<double> sine(double freq, double fs, double seconds,
                         double phase = 0.0) {
  const auto n = static_cast<std::size_t>(seconds * fs);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::sin(kTwoPi * freq * static_cast<double>(i) / fs + phase);
  }
  return out;
}

}  // namespace

TEST(Fft, ForwardInverseRoundTrip) {
  std::vector<std::complex<double>> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = {std::sin(0.3 * static_cast<double>(i)), 0.0};
  }
  auto original = data;
  dsp::fft(data);
  dsp::fft(data, /*inverse=*/true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<std::complex<double>> data(16, {0.0, 0.0});
  data[0] = {1.0, 0.0};
  dsp::fft(data);
  for (const auto& c : data) EXPECT_NEAR(std::abs(c), 1.0, 1e-12);
}

TEST(Fft, NonPowerOfTwoThrows) {
  std::vector<std::complex<double>> data(10);
  EXPECT_THROW(dsp::fft(data), InvalidArgument);
}

TEST(NextPow2, Values) {
  EXPECT_EQ(dsp::next_pow2(1), 1u);
  EXPECT_EQ(dsp::next_pow2(2), 2u);
  EXPECT_EQ(dsp::next_pow2(3), 4u);
  EXPECT_EQ(dsp::next_pow2(1000), 1024u);
}

TEST(MagnitudeSpectrum, UnitSineHasUnitPeak) {
  // 8 Hz sine, 256 samples at 64 Hz: exactly 32 cycles -> bin-aligned.
  const auto xs = sine(8.0, 64.0, 4.0);
  const auto mag = dsp::magnitude_spectrum(xs);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < mag.size(); ++k) {
    if (mag[k] > mag[peak]) peak = k;
  }
  EXPECT_NEAR(mag[peak], 1.0, 0.01);
  // Bin index: 8 Hz / (64 Hz / 256) = 32.
  EXPECT_EQ(peak, 32u);
}

TEST(DominantFrequency, FindsSine) {
  const auto xs = sine(2.5, 100.0, 8.0);
  EXPECT_NEAR(dsp::dominant_frequency(xs, 100.0), 2.5, 0.15);
}

TEST(DominantFrequency, ZeroForDc) {
  const std::vector<double> xs(64, 3.0);
  EXPECT_DOUBLE_EQ(dsp::dominant_frequency(xs, 100.0), 0.0);
}

TEST(SpectralEntropy, ToneLowNoiseHigh) {
  const auto tone = sine(5.0, 100.0, 4.0);
  std::vector<double> noise(tone.size());
  unsigned state = 12345;
  for (double& v : noise) {
    state = state * 1664525u + 1013904223u;
    v = static_cast<double>(state) / 4294967295.0 - 0.5;
  }
  EXPECT_LT(dsp::spectral_entropy(tone), 0.35);
  EXPECT_GT(dsp::spectral_entropy(noise), 0.7);
}

TEST(Autocorr, PeriodicSignalAtFullLag) {
  const auto xs = sine(2.0, 100.0, 4.0);  // period 50 samples
  EXPECT_NEAR(dsp::autocorr_at(xs, 50), 1.0, 0.05);
  EXPECT_NEAR(dsp::autocorr_at(xs, 25), -1.0, 0.05);
  EXPECT_DOUBLE_EQ(dsp::autocorr_at(xs, 0), 1.0);
}

TEST(Autocorr, ConstantSignalIsZero) {
  const std::vector<double> xs(100, 5.0);
  EXPECT_DOUBLE_EQ(dsp::autocorr_at(xs, 10), 0.0);
}

TEST(Autocorr, LagBoundsChecked) {
  const std::vector<double> xs(10, 1.0);
  EXPECT_THROW(dsp::autocorr_at(xs, 10), InvalidArgument);
}

// The AutocorrFft, XcorrFft and DominantPeriod.FftAndNaivePickTheSamePeriod
// cases keep the names of the former FFT-kernel checks; they now run the
// direct lag loops, the only correlation kernels, on the same inputs.

TEST(AutocorrFft, ConstantSignalIsAllZeros) {
  const std::vector<double> xs(300, 7.5);
  const auto ac = dsp::autocorr(xs, 150);
  ASSERT_EQ(ac.size(), 151u);
  for (double v : ac) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(AutocorrFft, PeriodicSignalScoresOneAtPeriod) {
  // The full lag sweep up to n/2: the unbiased normalization keeps a
  // periodic signal at ~1 on every multiple of its period, however little
  // of the signal overlaps.
  const auto xs = sine(2.0, 100.0, 8.0);  // 800 samples, period 50
  const auto ac = dsp::autocorr(xs, xs.size() / 2);
  ASSERT_EQ(ac.size(), xs.size() / 2 + 1);
  EXPECT_NEAR(ac[0], 1.0, 1e-12);
  EXPECT_NEAR(ac[25], -1.0, 0.05);
  EXPECT_NEAR(ac[50], 1.0, 0.05);
  EXPECT_NEAR(ac[400], 1.0, 0.05);
}

TEST(AutocorrFft, BoundsChecked) {
  const std::vector<double> xs(16, 1.0);
  EXPECT_THROW(dsp::autocorr(xs, 16), InvalidArgument);
  EXPECT_NO_THROW(dsp::autocorr(xs, 15));
}

TEST(Xcorr, FindsKnownLag) {
  const double fs = 100.0;
  const auto a = sine(2.0, fs, 4.0);
  const auto b = sine(2.0, fs, 4.0, -kPi / 2);  // b delayed by T/4 = 12.5
  const int lag = dsp::best_lag(a, b, 25);
  EXPECT_NEAR(static_cast<double>(lag), 12.5, 1.6);
}

TEST(Xcorr, QuarterPeriodLagOnA400HzCycle) {
  // One gait cycle at 400 Hz (1.1 s, n = 440): vertical and anterior both
  // oscillate at the step period n/2, the anterior a quarter of it (n/8 =
  // 55 samples) behind — the pattern the gait-ID phase gate looks for,
  // searched over n/4 lags either side as GaitIdentifier does: 440 x 221
  // multiply-adds, ~16x a typical 100 Hz cycle (110 x 55).
  const std::size_t n = 440;
  std::vector<double> vertical(n);
  std::vector<double> anterior(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = kTwoPi * 2.0 * static_cast<double>(i) /
                         static_cast<double>(n);
    vertical[i] = std::cos(phase);
    anterior[i] = std::sin(phase);
  }
  const int lag = dsp::best_lag(vertical, anterior, n / 4);
  EXPECT_NEAR(static_cast<double>(lag), 55.0, 5.5);  // 10 % of the quarter
  EXPECT_NEAR(static_cast<double>(dsp::best_lag(anterior, vertical, n / 4)),
              -55.0, 5.5);
}

TEST(Xcorr, ZeroLagForIdenticalSignals) {
  const auto a = sine(3.0, 100.0, 3.0);
  EXPECT_EQ(dsp::best_lag(a, a, 20), 0);
}

TEST(XcorrFft, FindsKnownLagOnLongSignals) {
  // 4000 samples, 100 lags either side.
  std::vector<double> a(4000);
  std::vector<double> b(4000);
  const double period = 200.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = std::sin(kTwoPi * static_cast<double>(i) / period);
    b[i] = std::sin(kTwoPi * (static_cast<double>(i) - 50.0) / period);
  }
  EXPECT_NEAR(dsp::best_lag(a, b, 100), 50, 1);
}

TEST(XcorrFft, ZeroSignalYieldsZeros) {
  // A constant is all zero after demeaning, so every lag correlates to
  // exactly zero and the first lag searched wins.
  const std::vector<double> a(200, 3.0);
  std::vector<double> b(200);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = std::sin(0.1 * static_cast<double>(i));
  }
  EXPECT_EQ(dsp::best_lag(a, b, 100), -100);
  EXPECT_EQ(dsp::best_lag(a, a, 100), -100);
}

TEST(DominantPeriod, FindsSinePeriod) {
  const auto xs = sine(2.0, 100.0, 6.0);  // 50-sample period
  EXPECT_EQ(dsp::dominant_period(xs, 10, 200), 50u);
}

TEST(DominantPeriod, FftAndNaivePickTheSamePeriod) {
  // A noisy 110-sample period over 4096 samples; the window [50, 160]
  // excludes its harmonics, so the true period must win.
  Rng rng(0xbead);
  std::vector<double> xs(4096);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = std::sin(kTwoPi * static_cast<double>(i) / 110.0) +
            rng.normal(0.0, 0.2);
  }
  EXPECT_EQ(dsp::dominant_period(xs, 50, 160), 110u);
}

TEST(DominantPeriod, ZeroWhenNoPeak) {
  const std::vector<double> xs(64, 1.0);
  EXPECT_EQ(dsp::dominant_period(xs, 4, 30), 0u);
}
