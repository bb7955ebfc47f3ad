// Unit tests for gait-cycle candidate segmentation (SegmentationStage).

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/stages.hpp"
#include "synth/synthesizer.hpp"

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

/// Candidate cycles of one flushing advance over the whole channel (the
/// batch segmentation).
std::vector<core::CycleCandidate> segment(const std::vector<double>& xs,
                                          double fs,
                                          const core::StepCounterConfig& cfg) {
  core::SegmentationStage stage(cfg, fs);
  Ring<double> vertical;
  for (const double v : xs) vertical.push(v);
  std::vector<core::CycleCandidate> out;
  stage.advance(vertical, /*flush=*/true, out);
  return out;
}

/// The step peaks the batch segmentation paired into cycles.
std::vector<std::size_t> step_peaks(const std::vector<double>& xs, double fs,
                                    const core::StepCounterConfig& cfg) {
  std::vector<std::size_t> peaks;
  for (const core::CycleCandidate& c : segment(xs, fs, cfg)) {
    if (peaks.empty() || peaks.back() != c.begin) peaks.push_back(c.begin);
    peaks.push_back(c.mid);
    peaks.push_back(c.end);
  }
  return peaks;
}

}  // namespace

TEST(StepPeaks, FindsAllStepPeaks) {
  const auto xs = step_signal(100.0, 10.0, 2.0);  // 20 peaks
  const auto peaks = step_peaks(xs, 100.0, {});
  // All but the first (at sample 0, no rise) pair into cycles.
  EXPECT_NEAR(static_cast<double>(peaks.size()), 20.0, 1.0);
}

TEST(StepPeaks, WeakSignalFiltered) {
  const auto xs = step_signal(100.0, 10.0, 2.0, 0.1);  // below prominence
  EXPECT_TRUE(step_peaks(xs, 100.0, {}).empty());
}

TEST(StepPeaks, RefractoryIntervalEnforced) {
  core::StepCounterConfig cfg;
  const auto xs = step_signal(100.0, 10.0, 2.0);
  const auto peaks = step_peaks(xs, 100.0, cfg);
  const auto min_gap =
      static_cast<std::size_t>(cfg.min_step_interval_s * 100.0);
  for (std::size_t i = 1; i < peaks.size(); ++i) {
    EXPECT_GE(peaks[i] - peaks[i - 1], min_gap);
  }
}

TEST(SegmentCycles, PairsNonOverlapping) {
  const auto xs = step_signal(100.0, 12.0, 2.0);
  const auto cycles = segment(xs, 100.0, {});
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
  const auto cycles = segment(xs, fs, {});
  const double expected = 2.0 * fs / cadence;  // samples per cycle
  for (const auto& c : cycles) {
    EXPECT_NEAR(static_cast<double>(c.end - c.begin), expected, 4.0);
  }
}

TEST(SegmentCycles, SlowPeaksRejectedByMaxInterval) {
  // 0.5 Hz "steps": gaps of 2 s exceed max_step_interval_s.
  const auto xs = step_signal(100.0, 20.0, 0.5);
  EXPECT_TRUE(segment(xs, 100.0, {}).empty());
}

TEST(SegmentCycles, FewPeaksYieldNoCycles) {
  const auto xs = step_signal(100.0, 1.0, 2.0);  // ~2 peaks only
  EXPECT_TRUE(segment(xs, 100.0, {}).empty());
}

TEST(SegmentCycles, GapSplitsCandidates) {
  // Steps, then silence, then steps: no candidate spans the silence.
  auto xs = step_signal(100.0, 6.0, 2.0);
  const auto quiet = std::vector<double>(300, 0.0);
  xs.insert(xs.end(), quiet.begin(), quiet.end());
  const auto tail = step_signal(100.0, 6.0, 2.0);
  xs.insert(xs.end(), tail.begin(), tail.end());

  core::StepCounterConfig cfg;
  const auto cycles = segment(xs, 100.0, cfg);
  const auto max_len =
      static_cast<std::size_t>(2.0 * cfg.max_step_interval_s * 100.0);
  for (const auto& c : cycles) {
    EXPECT_LE(c.end - c.begin, max_len);
  }
}

namespace {

/// Two unit step peaks, then a third that opens a chain of ever taller
/// peaks 29 samples apart (closer than the min distance): its verdict
/// waits for two suppression levels of that chain, and it survives. By
/// then the scan's own retention has moved past the first two peaks, so
/// the stage must keep them for the cycle they open.
std::vector<double> late_decision_signal() {
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
  for (std::size_t k = 0; k <= 20; ++k) {
    spike(1151 + 29 * k, 2.0 + 0.1 * static_cast<double>(k));
  }
  return xs;
}

/// Streams `xs` through a SegmentationStage in hops of `hop` samples (the
/// last one flushing), trimming the channel to what the stage still needs
/// after every hop as StagePipeline does. Every emitted cycle must still be
/// readable when it is emitted.
std::vector<core::CycleCandidate> stream(const std::vector<double>& xs,
                                         std::size_t hop,
                                         const core::StepCounterConfig& cfg) {
  core::SegmentationStage stage(cfg, 100.0);
  Ring<double> vertical;
  std::vector<core::CycleCandidate> streamed;
  std::vector<core::CycleCandidate> fresh;
  for (std::size_t i = 0; i < xs.size(); i += hop) {
    for (std::size_t k = i; k < std::min(i + hop, xs.size()); ++k) {
      vertical.push(xs[k]);
    }
    fresh.clear();
    stage.advance(vertical, i + hop >= xs.size(), fresh);
    for (const core::CycleCandidate& c : fresh) {
      EXPECT_GE(c.begin, vertical.base()) << "cycle emitted at " << c.begin
                                          << " after its samples were trimmed";
      streamed.push_back(c);
    }
    vertical.trim_to(std::min(stage.min_required(), vertical.end()));
  }
  return streamed;
}

void expect_same_cycles(const std::vector<core::CycleCandidate>& got,
                        const std::vector<core::CycleCandidate>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].begin, want[k].begin) << what << " cycle " << k;
    EXPECT_EQ(got[k].mid, want[k].mid) << what << " cycle " << k;
    EXPECT_EQ(got[k].end, want[k].end) << what << " cycle " << k;
  }
}

}  // namespace

TEST(SegmentationStage, RetainsUnpairedPeaksAcceptedLate) {
  const core::StepCounterConfig cfg;
  const std::vector<double> xs = late_decision_signal();
  const std::vector<core::CycleCandidate> batch = segment(xs, 100.0, cfg);
  ASSERT_GE(batch.size(), 1u);
  EXPECT_EQ(batch[0].begin, 1000u);
  EXPECT_EQ(batch[0].mid, 1047u);
  EXPECT_EQ(batch[0].end, 1151u);
  for (const std::size_t hop : {1u, 50u, 100u}) {
    expect_same_cycles(stream(xs, hop, cfg), batch,
                       "hop " + std::to_string(hop));
  }
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
  // Retention trails the frontier by at most the prominence window.
  const auto bound = static_cast<std::size_t>(core::kPeakWindowS * fs) + 2;
  EXPECT_GE(stage.min_required() + bound, xs.size());
}

namespace {

/// The streaming equivalence scenarios' projected vertical channels.
std::vector<std::pair<std::string, std::vector<double>>> scenario_channels() {
  synth::UserProfile user;
  const auto project = [&](const synth::Scenario& sc, std::uint64_t seed) {
    Rng rng(seed);
    const imu::Trace trace =
        synth::synthesize(sc, user, synth::SynthOptions{}, rng).trace;
    return core::project_trace(trace).vertical;
  };
  return {
      {"walking", project(synth::Scenario::pure_walking(45.0), 701)},
      {"stepping", project(synth::Scenario::pure_stepping(45.0), 702)},
      {"mixed", project(synth::Scenario::mixed_gait(60.0), 703)},
      {"interference",
       project(synth::Scenario::interference(synth::ActivityKind::Gaming, 45.0,
                                             synth::Posture::Standing),
               704)},
  };
}

/// Seeded step-like channel with exact ties, held plateaus (cut by hop
/// edges) and runs of ever taller peaks inside the refractory interval.
std::vector<double> random_step_channel(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> xs;
  double phase = 0.0;
  while (xs.size() < n) {
    const int len = rng.uniform_int(10, 300);
    switch (rng.uniform_int(0, 2)) {
      case 0:  // quantized steps at a wandering cadence
        for (int k = 0; k < len; ++k) {
          phase += kTwoPi * rng.uniform(1.2, 2.5) / 100.0;
          xs.push_back(std::round((3.0 * std::cos(phase) +
                                   rng.normal(0.0, 0.4)) * 2.0) / 2.0);
        }
        break;
      case 1:  // held run
        xs.insert(xs.end(), static_cast<std::size_t>(len),
                  xs.empty() ? 0.0 : xs.back());
        break;
      default: {  // chain of taller peaks
        double h = rng.uniform(0.0, 2.0);
        for (int k = 0; k < len / 10; ++k) {
          const int gap = rng.uniform_int(4, 40);
          for (int g = 0; g < gap; ++g) xs.push_back(-2.0);
          xs.push_back(h);
          h += 0.5;
        }
        break;
      }
    }
  }
  xs.resize(n);
  return xs;
}

}  // namespace

// Hop by hop, the stage emits exactly the candidates one flushing advance
// over the whole channel emits, whatever the hop.
TEST(SegmentationStage, IncrementalScanAcceptsWhatARescanAccepts) {
  const core::StepCounterConfig cfg;
  for (const auto& [name, xs] : scenario_channels()) {
    const std::vector<core::CycleCandidate> batch = segment(xs, 100.0, cfg);
    if (name == "walking") {
      EXPECT_GT(batch.size(), 30u);
    }
    for (std::size_t hop : {1u, 50u, 100u, 200u}) {
      expect_same_cycles(stream(xs, hop, cfg), batch,
                         name + " hop " + std::to_string(hop));
    }
  }
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::vector<double> xs = random_step_channel(seed, 6000);
    const std::vector<core::CycleCandidate> batch = segment(xs, 100.0, cfg);
    EXPECT_GT(batch.size(), 5u) << "seed " << seed;
    for (std::size_t hop : {1u, 37u, 100u}) {
      expect_same_cycles(stream(xs, hop, cfg), batch,
                         "random seed " + std::to_string(seed) + " hop " +
                             std::to_string(hop));
    }
  }
}
