// Unit tests for peak / valley / zero-crossing / extremum detection.

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.hpp"
#include "common/rng.hpp"
#include "dsp/peaks.hpp"

using namespace ptrack;

namespace {

std::vector<double> sine(double freq, double fs, double seconds) {
  const auto n = static_cast<std::size_t>(seconds * fs);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::sin(kTwoPi * freq * static_cast<double>(i) / fs);
  }
  return out;
}

}  // namespace

TEST(FindPeaks, CountsSinePeaks) {
  const auto xs = sine(2.0, 100.0, 5.0);  // 10 full periods -> 10 maxima
  const auto peaks = dsp::find_peaks(xs);
  EXPECT_EQ(peaks.size(), 10u);
}

TEST(FindPeaks, MinHeightFilters) {
  std::vector<double> xs{0, 1, 0, 5, 0, 2, 0};
  dsp::PeakOptions opt;
  opt.min_height = 3.0;
  const auto peaks = dsp::find_peaks(xs, opt);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0], 3u);
}

TEST(FindPeaks, MinDistanceKeepsTaller) {
  std::vector<double> xs{0, 2, 0, 3, 0};
  dsp::PeakOptions opt;
  opt.min_distance = 3;
  const auto peaks = dsp::find_peaks(xs, opt);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0], 3u);
}

TEST(FindPeaks, PlateauReportsCenter) {
  std::vector<double> xs{0, 1, 2, 2, 2, 1, 0};
  const auto peaks = dsp::find_peaks(xs);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0], 3u);
}

TEST(FindPeaks, ProminenceFiltersRipple) {
  // A small ripple riding on the slope of a big peak has low prominence.
  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) {
    double v = std::sin(kPi * i / 100.0);        // one big arch
    v += 0.05 * std::sin(kTwoPi * i / 10.0);     // small ripple
    xs.push_back(v);
  }
  dsp::PeakOptions opt;
  opt.min_prominence = 0.5;
  const auto peaks = dsp::find_peaks(xs, opt);
  EXPECT_EQ(peaks.size(), 1u);
}

TEST(FindPeaks, EmptyAndTinyInputs) {
  EXPECT_TRUE(dsp::find_peaks(std::vector<double>{}).empty());
  EXPECT_TRUE(dsp::find_peaks(std::vector<double>{1.0, 2.0}).empty());
}

TEST(FindValleys, MirrorsPeaks) {
  const auto xs = sine(2.0, 100.0, 5.0);
  EXPECT_EQ(dsp::find_valleys(xs).size(), 10u);
}

TEST(PeakProminence, IsolatedPeakFullHeight) {
  std::vector<double> xs{0, 0, 3, 0, 0};
  EXPECT_DOUBLE_EQ(dsp::peak_prominence(xs, 2), 3.0);
}

TEST(ZeroCrossings, CountsSineCrossings) {
  const auto xs = sine(1.0, 100.0, 3.0);  // 3 periods: crossings at T/2 spacing
  const auto zs = dsp::zero_crossings(xs);
  // First confirmed crossing needs a preceding confirmed side, so expect 5.
  EXPECT_EQ(zs.size(), 5u);
}

TEST(ZeroCrossings, HysteresisSuppressesChatter) {
  // Noise oscillating inside the hysteresis band must produce no crossings.
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back((i % 2 == 0) ? 0.05 : -0.05);
  EXPECT_TRUE(dsp::zero_crossings(xs, 0.2).empty());
  EXPECT_FALSE(dsp::zero_crossings(xs, 0.01).empty());
}

TEST(ZeroCrossings, ReportsActualSignChangeNotConfirmation) {
  // Slow rise: sign change at index 5, confirmation (beyond 0.5) at 7.
  const std::vector<double> xs{-1.0, -0.8, -0.6, -0.4, -0.2,
                               0.05, 0.3,  0.7,  1.0};
  const auto zs = dsp::zero_crossings(xs, 0.5);
  ASSERT_EQ(zs.size(), 1u);
  EXPECT_EQ(zs[0], 5u);
}

TEST(FindExtrema, AlternatesAndSorted) {
  const auto xs = sine(2.0, 100.0, 2.0);
  const auto ext = dsp::find_extrema(xs);
  ASSERT_GE(ext.size(), 6u);
  for (std::size_t i = 1; i < ext.size(); ++i) {
    EXPECT_LT(ext[i - 1].index, ext[i].index);
    EXPECT_NE(ext[i - 1].is_max, ext[i].is_max);  // alternating on a sine
  }
}

TEST(FindExtrema, ValuesMatchSignal) {
  const auto xs = sine(1.0, 100.0, 2.0);
  for (const dsp::Extremum& e : dsp::find_extrema(xs)) {
    EXPECT_DOUBLE_EQ(e.value, xs[e.index]);
    if (e.is_max) {
      EXPECT_NEAR(e.value, 1.0, 0.01);
    } else {
      EXPECT_NEAR(e.value, -1.0, 0.01);
    }
  }
}

namespace {

/// Seeded signal that stresses the incremental scan's edge cases: exact
/// ties and plateaus (quantized levels and held runs, which hop edges cut),
/// and chains of ever taller peaks closer than the suppression distance.
std::vector<double> adversarial_signal(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> xs;
  double phase = 0.0;
  while (xs.size() < n) {
    const int len = rng.uniform_int(4, 120);
    switch (rng.uniform_int(0, 3)) {
      case 0:  // quantized noisy wave
        for (int k = 0; k < len; ++k) {
          phase += 0.15;
          xs.push_back(
              std::round((2.0 * std::sin(phase) + rng.normal(0.0, 0.3)) * 4.0) /
              4.0);
        }
        break;
      case 1:  // held run
        xs.insert(xs.end(), static_cast<std::size_t>(len),
                  xs.empty() ? 0.0 : xs.back());
        break;
      case 2: {  // chain of taller peaks
        double h = rng.uniform(-1.0, 1.0);
        for (int k = 0; k < len / 4; ++k) {
          const int gap = rng.uniform_int(1, 6);
          for (int g = 0; g < gap; ++g) xs.push_back(h - 1.0);
          xs.push_back(h);
          h += rng.chance(0.2) ? 0.0 : 0.25;
        }
        break;
      }
      default:  // small integer levels
        for (int k = 0; k < len; ++k) xs.push_back(rng.uniform_int(0, 3));
        break;
    }
  }
  xs.resize(n);
  return xs;
}

}  // namespace

// The incremental scan must return exactly what a rescan of the same
// window returns, on every call, as both window edges slide forward in
// uneven steps (edges landing inside plateaus, starts passing maxima and
// the walks' breakers).
TEST(PeakScan, MatchesRescanOnEveryWindow) {
  std::vector<dsp::PeakOptions> opts(4);
  opts[1].min_distance = 5;
  opts[1].min_prominence = 0.3;
  opts[2].min_distance = 30;
  opts[2].min_prominence = 1.0;
  opts[2].min_height = 0.5;
  opts[3].min_distance = 12;
  opts[3].min_prominence = 0.01;
  std::size_t windows = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<double> xs = adversarial_signal(seed, 4000);
    for (const dsp::PeakOptions& opt : opts) {
      Rng rng(seed * 7919);
      dsp::PeakScan scan;
      std::vector<std::size_t> got;
      std::vector<std::size_t> want;
      std::size_t begin = 0;
      std::size_t end = 0;
      while (end < xs.size()) {
        end = std::min(xs.size(), end + static_cast<std::size_t>(
                                            rng.uniform_int(1, 150)));
        const std::size_t lookback =
            static_cast<std::size_t>(rng.uniform_int(0, 700));
        begin = std::max(begin, end > lookback ? end - lookback : 0);
        const std::span<const double> window(xs.data() + begin, end - begin);
        scan.scan(window, begin, opt, got);
        dsp::find_peaks_into(window, opt, want);
        ASSERT_EQ(got, want) << "seed " << seed << " window [" << begin
                             << ", " << end << ")";
        ++windows;
      }
    }
  }
  EXPECT_GT(windows, 5000u);
}

TEST(PeakScan, StartsOverWhenTheWindowMovesBack) {
  const std::vector<double> xs = adversarial_signal(99, 1000);
  dsp::PeakOptions opt;
  opt.min_distance = 8;
  opt.min_prominence = 0.5;
  dsp::PeakScan scan;
  std::vector<std::size_t> got;
  std::vector<std::size_t> want;
  scan.scan(std::span<const double>(xs).subspan(400, 600), 400, opt, got);
  scan.scan(std::span<const double>(xs).first(500), 0, opt, got);
  dsp::find_peaks_into(std::span<const double>(xs).first(500), opt, want);
  EXPECT_EQ(got, want);
}
