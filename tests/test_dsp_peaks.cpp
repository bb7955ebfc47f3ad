// Unit tests for peak / valley / zero-crossing / extremum detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <vector>

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

/// The PeakScan rule over a whole signal, by brute force: find_peaks()'s
/// raw maxima, prominence walks bounded to `half` samples each side, then
/// min-distance suppression `depth` levels deep (ties: the earlier wins).
std::vector<std::size_t> reference_scan(const std::vector<double>& xs,
                                        std::size_t min_distance,
                                        double min_prominence,
                                        std::size_t half, std::size_t depth) {
  std::vector<std::size_t> cands;
  for (const std::size_t p : dsp::find_peaks(xs)) {
    const double h = xs[p];
    double left = h;
    for (std::size_t k = p; k-- > 0 && k + half >= p;) {
      left = std::min(left, xs[k]);
      if (xs[k] > h) break;
    }
    double right = h;
    for (std::size_t k = p + 1; k < xs.size() && k <= p + half; ++k) {
      right = std::min(right, xs[k]);
      if (xs[k] > h) break;
    }
    if (h - std::max(left, right) >= min_prominence) cands.push_back(p);
  }
  const std::function<bool(std::size_t, std::size_t)> kept =
      [&](std::size_t i, std::size_t level) {
        if (level == 0) return true;
        for (std::size_t k = 0; k < cands.size(); ++k) {
          const std::size_t gap =
              cands[k] > cands[i] ? cands[k] - cands[i] : cands[i] - cands[k];
          const bool taller = xs[cands[k]] > xs[cands[i]] ||
                              (xs[cands[k]] == xs[cands[i]] && k < i);
          if (k != i && gap < min_distance && taller && kept(k, level - 1)) {
            return false;
          }
        }
        return true;
      };
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (kept(i, depth)) out.push_back(cands[i]);
  }
  return out;
}

}  // namespace

// Fed in uneven steps, with the window start anywhere the scanner allows,
// the scan reports exactly the peaks the brute-force rule finds over the
// whole signal, in order and each once.
TEST(PeakScan, MatchesRescanOnEveryWindow) {
  struct Opt {
    std::size_t min_distance;
    double min_prominence;
    std::size_t half;
    std::size_t depth;
  };
  const Opt opts[] = {{1, 0.0, 1, 1},   {5, 0.3, 40, 2}, {30, 1.0, 100, 1},
                      {12, 0.01, 7, 3}, {8, 0.2, 20, 6}};
  std::size_t calls = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<double> xs = adversarial_signal(seed, 4000);
    for (const Opt& o : opts) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " distance "
                                        << o.min_distance << " half "
                                        << o.half << " depth " << o.depth);
      Rng rng(seed * 7919);
      dsp::PeakScan scan(o.min_distance, o.min_prominence, o.half, o.depth);
      std::vector<std::size_t> got;
      std::size_t begin = 0;
      std::size_t end = 0;
      while (end < xs.size()) {
        end = std::min(xs.size(), end + static_cast<std::size_t>(
                                            rng.uniform_int(1, 150)));
        const std::size_t floor = std::min(scan.min_required(), end);
        begin = std::max<std::size_t>(
            begin, floor - std::min<std::size_t>(
                               floor, static_cast<std::size_t>(
                                          rng.uniform_int(0, 300))));
        const std::size_t before = got.size();
        const std::size_t pending = scan.pending_from();
        scan.scan(std::span<const double>(xs).subspan(begin, end - begin),
                  begin, end == xs.size(), got);
        for (std::size_t k = before; k < got.size(); ++k) {
          EXPECT_GE(got[k], pending);
        }
        ++calls;
      }
      EXPECT_EQ(got, reference_scan(xs, o.min_distance, o.min_prominence,
                                    o.half, o.depth));
    }
  }
  EXPECT_GT(calls, 5000u);
}

// With windows longer than the signal and suppression followed as deep as
// any chain runs, a flush is find_peaks() itself on a signal without exact
// ties.
TEST(PeakScan, UnboundedFlushIsFindPeaks) {
  Rng rng(31);
  std::vector<double> xs(3000);
  double phase = 0.0;
  for (double& x : xs) {
    phase += 0.2;
    x = 2.0 * std::sin(phase) + std::sin(2.7 * phase) + rng.normal(0.0, 0.3);
  }
  dsp::PeakOptions opt;
  opt.min_distance = 20;
  opt.min_prominence = 0.8;
  dsp::PeakScan scan(opt.min_distance, opt.min_prominence, xs.size(),
                     xs.size());
  std::vector<std::size_t> got;
  scan.scan(xs, 0, true, got);
  EXPECT_GT(got.size(), 50u);
  EXPECT_EQ(got, dsp::find_peaks(xs, opt));
}
