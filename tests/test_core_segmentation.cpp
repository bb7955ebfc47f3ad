// Unit tests for gait-cycle candidate segmentation.

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/frontend.hpp"
#include "core/segmentation.hpp"
#include "core/stages.hpp"
#include "dsp/peaks.hpp"
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

namespace {

/// SegmentationStage as it was before its peak scan became incremental:
/// every hop re-runs dsp::find_peaks_into over the whole scan region
/// [scan_begin, end). Kept verbatim as the oracle the incremental stage
/// must match hop for hop.
class RescanSegmentation {
 public:
  RescanSegmentation(const core::StepCounterConfig& cfg, double fs)
      : cfg_(cfg),
        fs_(fs),
        lookback_(static_cast<std::size_t>(core::kSegmentationLookbackS * fs)),
        margin_(static_cast<std::size_t>(core::kSegmentationMarginS * fs)) {}

  void advance(const Ring<double>& vertical, bool flush,
               std::vector<core::CycleCandidate>& out) {
    const std::size_t end = vertical.end();
    const std::size_t accept_to =
        flush ? end : (end > margin_ ? end - margin_ : 0);
    const std::size_t scan_begin = std::max(vertical.base(), scan_floor_);
    if (end > scan_begin && end - scan_begin >= 3) {
      dsp::PeakOptions opt;
      opt.min_distance = std::max<std::size_t>(
          1, static_cast<std::size_t>(cfg_.min_step_interval_s * fs_));
      opt.min_prominence = cfg_.min_cycle_prominence;
      dsp::find_peaks_into(vertical.span(scan_begin, end), opt, scan_);
      for (const std::size_t r : scan_) {
        const std::size_t p = scan_begin + r;
        if (have_last_final_ && p <= last_final_peak_) continue;
        if (p >= accept_to) break;
        peaks_.push_back(p);
        last_final_peak_ = p;
        have_last_final_ = true;
      }
    }
    scan_floor_ = std::max(scan_floor_,
                           accept_to > lookback_ ? accept_to - lookback_ : 0);
    const auto max_gap =
        static_cast<std::size_t>(cfg_.max_step_interval_s * fs_);
    while (pair_index_ + 2 < peaks_.size()) {
      const std::size_t p0 = peaks_[pair_index_];
      const std::size_t p1 = peaks_[pair_index_ + 1];
      const std::size_t p2 = peaks_[pair_index_ + 2];
      if ((p1 - p0) <= max_gap && (p2 - p1) <= max_gap) {
        out.push_back({p0, p1, p2});
        pair_index_ += 2;
      } else {
        ++pair_index_;
      }
    }
    if (pair_index_ + 1 < peaks_.size() &&
        peaks_[pair_index_ + 1] - peaks_[pair_index_] > max_gap) {
      ++pair_index_;
    }
    if (pair_index_ < peaks_.size() && peaks_.back() + max_gap < scan_floor_) {
      pair_index_ = peaks_.size();
    }
  }

  [[nodiscard]] std::size_t min_required() const {
    return pair_index_ < peaks_.size()
               ? std::min(scan_floor_, peaks_[pair_index_])
               : scan_floor_;
  }

  /// Every peak accepted so far, in acceptance order.
  [[nodiscard]] const std::vector<std::size_t>& accepted() const {
    return peaks_;
  }

 private:
  core::StepCounterConfig cfg_;
  double fs_;
  std::size_t lookback_;
  std::size_t margin_;
  std::vector<std::size_t> peaks_;
  std::vector<std::size_t> scan_;
  std::size_t pair_index_ = 0;
  std::size_t last_final_peak_ = 0;
  bool have_last_final_ = false;
  std::size_t scan_floor_ = 0;
};

/// Drives the stage and the rescan oracle side by side over `xs` in hops
/// of `hop` samples, with a flushing advance (a stream pause) at
/// `pause_at` and at the end, trimming the channel as StagePipeline does.
/// Every hop must emit the same candidates and retain the same history.
/// Returns the number of peaks the oracle accepted.
std::size_t expect_stage_matches_rescan(const std::vector<double>& xs,
                                 std::size_t hop, std::size_t pause_at,
                                 const core::StepCounterConfig& cfg,
                                 const std::string& what) {
  const double fs = 100.0;
  core::SegmentationStage stage(cfg, fs);
  RescanSegmentation oracle(cfg, fs);
  Ring<double> vertical;
  std::vector<core::CycleCandidate> got;
  std::vector<core::CycleCandidate> want;
  std::size_t next = 0;
  std::size_t hops = 0;
  while (next < xs.size()) {
    const std::size_t stop = std::min(
        xs.size(), next < pause_at && next + hop > pause_at ? pause_at
                                                            : next + hop);
    for (; next < stop; ++next) vertical.push(xs[next]);
    const bool flush = next == pause_at || next == xs.size();
    got.clear();
    want.clear();
    stage.advance(vertical, flush, got);
    oracle.advance(vertical, flush, want);
    ++hops;
    EXPECT_EQ(got.size(), want.size()) << what << " hop " << hops;
    if (got.size() != want.size()) break;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].begin, want[k].begin) << what << " hop " << hops;
      EXPECT_EQ(got[k].mid, want[k].mid) << what << " hop " << hops;
      EXPECT_EQ(got[k].end, want[k].end) << what << " hop " << hops;
    }
    EXPECT_EQ(stage.min_required(), oracle.min_required())
        << what << " hop " << hops;
    vertical.trim_to(std::min(stage.min_required(), vertical.end()));
  }
  return oracle.accepted().size();
}

/// The streaming equivalence scenarios' projected vertical channels.
std::vector<std::pair<std::string, std::vector<double>>> scenario_channels() {
  synth::UserProfile user;
  const auto project = [&](const synth::Scenario& sc, std::uint64_t seed) {
    Rng rng(seed);
    const imu::Trace trace =
        synth::synthesize(sc, user, synth::SynthOptions{}, rng).trace;
    return core::project_trace(trace, core::StepCounterConfig{}.lowpass_hz)
        .vertical;
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

/// Tall peaks whose prominence walks cross the scan region's edges: each
/// peak sits on a shelf just below it, after a deep valley, and is followed
/// by a plateau that drops away 6.4-8 s later. When the drop arrives, the
/// region's start has (for some of the drop delays) moved past the valley
/// but not past the peak, so the peak's prominence is the shelf's small
/// step — unless a walk is stale: a left walk kept from when the region
/// still held the valley, or a right walk never extended to the drop.
std::vector<double> walk_edge_channel() {
  std::vector<double> xs;
  for (std::size_t drop = 640; drop <= 800; drop += 20) {
    xs.insert(xs.end(), 100, 0.0);
    xs.insert(xs.end(), 10, -5.0);        // valley
    xs.insert(xs.end(), 49, 1.9);         // shelf
    xs.push_back(2.0);                    // the peak
    xs.insert(xs.end(), drop - 1, 1.8);   // plateau
    xs.insert(xs.end(), 50, -5.0);        // the drop
    xs.insert(xs.end(), 200, 0.0);
  }
  return xs;
}

}  // namespace

TEST(SegmentationStage, IncrementalScanAcceptsWhatARescanAccepts) {
  const core::StepCounterConfig cfg;
  for (const auto& [name, xs] : scenario_channels()) {
    for (std::size_t hop : {50u, 100u, 200u}) {
      const std::size_t peaks = expect_stage_matches_rescan(
          xs, hop, xs.size() / 2, cfg, name + " hop " + std::to_string(hop));
      if (name == "walking") {
        EXPECT_GT(peaks, 60u);
      }
    }
  }
  const std::vector<double> edges = walk_edge_channel();
  for (std::size_t hop : {1u, 20u, 50u, 100u}) {
    expect_stage_matches_rescan(edges, hop, edges.size() / 2, cfg,
                                "walk edges hop " + std::to_string(hop));
  }
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::vector<double> xs = random_step_channel(seed, 6000);
    for (std::size_t hop : {1u, 37u, 100u}) {
      const std::size_t peaks = expect_stage_matches_rescan(
          xs, hop, 2500, cfg,
          "random seed " + std::to_string(seed) + " hop " +
              std::to_string(hop));
      EXPECT_GT(peaks, 20u) << "seed " << seed;
    }
  }
}
