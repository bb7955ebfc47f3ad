// Unit tests for gait-cycle candidate segmentation.

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.hpp"
#include "common/error.hpp"
#include "core/segmentation.hpp"
#include "core/stages.hpp"

using namespace ptrack;

namespace {

// Synthetic vertical channel: strong peaks at a given cadence.
std::vector<double> step_signal(double fs, double seconds, double cadence,
                                double amp = 4.0) {
  const auto n = static_cast<std::size_t>(fs * seconds);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = amp * std::cos(kTwoPi * cadence * static_cast<double>(i) / fs);
  }
  return out;
}

}  // namespace

TEST(StepPeaks, FindsAllStepPeaks) {
  const auto xs = step_signal(100.0, 10.0, 2.0);  // 20 peaks
  const auto peaks = core::step_peaks(xs, 100.0, {});
  EXPECT_NEAR(static_cast<double>(peaks.size()), 20.0, 1.0);
}

TEST(StepPeaks, WeakSignalFiltered) {
  const auto xs = step_signal(100.0, 10.0, 2.0, 0.1);  // below prominence
  EXPECT_TRUE(core::step_peaks(xs, 100.0, {}).empty());
}

TEST(StepPeaks, RefractoryIntervalEnforced) {
  core::StepCounterConfig cfg;
  const auto xs = step_signal(100.0, 10.0, 2.0);
  const auto peaks = core::step_peaks(xs, 100.0, cfg);
  const auto min_gap =
      static_cast<std::size_t>(cfg.min_step_interval_s * 100.0);
  for (std::size_t i = 1; i < peaks.size(); ++i) {
    EXPECT_GE(peaks[i] - peaks[i - 1], min_gap);
  }
}

TEST(SegmentCycles, PairsNonOverlapping) {
  const auto xs = step_signal(100.0, 12.0, 2.0);
  const auto cycles = core::segment_cycles(xs, 100.0, {});
  ASSERT_GE(cycles.size(), 10u);
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    EXPECT_LT(cycles[i].begin, cycles[i].mid);
    EXPECT_LT(cycles[i].mid, cycles[i].end);
    if (i > 0) {
      EXPECT_EQ(cycles[i].begin, cycles[i - 1].end);
    }
  }
}

TEST(SegmentCycles, CycleSpansTwoSteps) {
  const double cadence = 2.0;
  const double fs = 100.0;
  const auto xs = step_signal(fs, 12.0, cadence);
  const auto cycles = core::segment_cycles(xs, fs, {});
  const double expected = 2.0 * fs / cadence;  // samples per cycle
  for (const auto& c : cycles) {
    EXPECT_NEAR(static_cast<double>(c.end - c.begin), expected, 4.0);
  }
}

TEST(SegmentCycles, SlowPeaksRejectedByMaxInterval) {
  // 0.5 Hz "steps": gaps of 2 s exceed max_step_interval_s.
  const auto xs = step_signal(100.0, 20.0, 0.5);
  EXPECT_TRUE(core::segment_cycles(xs, 100.0, {}).empty());
}

TEST(SegmentCycles, FewPeaksYieldNoCycles) {
  const auto xs = step_signal(100.0, 1.0, 2.0);  // ~2 peaks only
  EXPECT_TRUE(core::segment_cycles(xs, 100.0, {}).empty());
}

TEST(SegmentCycles, GapSplitsCandidates) {
  // Steps, then silence, then steps: no candidate spans the silence.
  auto xs = step_signal(100.0, 6.0, 2.0);
  const auto quiet = std::vector<double>(300, 0.0);
  xs.insert(xs.end(), quiet.begin(), quiet.end());
  const auto tail = step_signal(100.0, 6.0, 2.0);
  xs.insert(xs.end(), tail.begin(), tail.end());

  core::StepCounterConfig cfg;
  const auto cycles = core::segment_cycles(xs, 100.0, cfg);
  const auto max_len =
      static_cast<std::size_t>(2.0 * cfg.max_step_interval_s * 100.0);
  for (const auto& c : cycles) {
    EXPECT_LE(c.end - c.begin, max_len);
  }
}

namespace {

/// Vertical channel whose third step peak clears the prominence threshold
/// only long after it was scanned: two unit peaks, then a taller peak that
/// decays onto a high plateau (prominence 0.2 while the plateau is the
/// newest data) and drops to zero only ~6.5 s later. The streaming stage
/// therefore accepts the third peak below an earlier acceptance frontier,
/// after its scan floor has passed the first two.
std::vector<double> late_prominence_signal() {
  std::vector<double> xs(2600, 0.0);
  const auto spike = [&](std::size_t at, double h) {
    for (std::size_t k = 0; k <= 5; ++k) {
      const double v = h * (1.0 - static_cast<double>(k) / 6.0);
      xs[at - k] = std::max(xs[at - k], v);
      xs[at + k] = std::max(xs[at + k], v);
    }
  };
  spike(1000, 1.0);
  spike(1047, 1.0);
  for (std::size_t i = 1141; i <= 1151; ++i) {
    xs[i] = 2.0 * static_cast<double>(i - 1141) / 10.0;
  }
  xs[1152] = 1.9;
  for (std::size_t i = 1153; i < 1800; ++i) xs[i] = 1.8;
  return xs;
}

}  // namespace

TEST(SegmentationStage, RetainsUnpairedPeaksAcceptedLate) {
  const double fs = 100.0;
  const core::StepCounterConfig cfg;
  const std::vector<double> xs = late_prominence_signal();

  // Batch: one flushing advance over the whole channel.
  std::vector<core::CycleCandidate> batch;
  {
    core::SegmentationStage stage(cfg, fs);
    Ring<double> vertical;
    for (double v : xs) vertical.push(v);
    stage.advance(vertical, /*flush=*/true, batch);
  }
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].begin, 1000u);
  EXPECT_EQ(batch[0].mid, 1047u);
  EXPECT_EQ(batch[0].end, 1151u);

  // Streaming in 0.5 s hops, trimming the channel to what the stage still
  // needs after every hop (as StagePipeline does): every emitted cycle
  // must still be readable when it is emitted.
  core::SegmentationStage stage(cfg, fs);
  Ring<double> vertical;
  std::vector<core::CycleCandidate> streamed;
  std::vector<core::CycleCandidate> fresh;
  const std::size_t hop = 50;
  for (std::size_t i = 0; i < xs.size(); i += hop) {
    for (std::size_t k = i; k < std::min(i + hop, xs.size()); ++k) {
      vertical.push(xs[k]);
    }
    const bool flush = i + hop >= xs.size();
    fresh.clear();
    stage.advance(vertical, flush, fresh);
    for (const core::CycleCandidate& c : fresh) {
      EXPECT_GE(c.begin, vertical.base()) << "cycle emitted at " << c.begin
                                          << " after its samples were trimmed";
      streamed.push_back(c);
    }
    vertical.trim_to(std::min(stage.min_required(), vertical.end()));
  }
  ASSERT_EQ(streamed.size(), batch.size());
  EXPECT_EQ(streamed[0].begin, batch[0].begin);
  EXPECT_EQ(streamed[0].mid, batch[0].mid);
  EXPECT_EQ(streamed[0].end, batch[0].end);
}

TEST(SegmentationStage, RetiresPeaksThatCanNoLongerPair) {
  // A lone peak followed by silence: once no future peak can land within
  // max_step_interval_s of it, the stage stops retaining it.
  const double fs = 100.0;
  const core::StepCounterConfig cfg;
  std::vector<double> xs(3000, 0.0);
  for (std::size_t k = 0; k <= 5; ++k) {
    xs[500 - k] = xs[500 + k] = 1.0 - static_cast<double>(k) / 6.0;
  }
  core::SegmentationStage stage(cfg, fs);
  Ring<double> vertical;
  std::vector<core::CycleCandidate> out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    vertical.push(xs[i]);
    if ((i + 1) % 100 != 0) continue;
    stage.advance(vertical, false, out);
    vertical.trim_to(std::min(stage.min_required(), vertical.end()));
  }
  EXPECT_TRUE(out.empty());
  EXPECT_GT(stage.min_required(), 500u);
  // Retention trails the frontier by at most the scan lookback plus margin.
  const auto bound = static_cast<std::size_t>(
      (core::kSegmentationLookbackS + core::kSegmentationMarginS) * fs);
  EXPECT_GE(stage.min_required() + bound, xs.size());
}
