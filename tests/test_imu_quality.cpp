// Quality-layer tests: every injector in imu/faults.hpp is detected by its
// dual detector at default thresholds, a clean synthesized trace produces
// zero flags (false-positive guard), the repair pass touches only flagged
// samples, and the pipeline's quality propagation reaches TrackResult.
// imu::assess_and_repair drives the one (online) engine over a whole trace.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "core/ptrack.hpp"
#include "imu/faults.hpp"
#include "imu/quality.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

synth::SynthResult walking(std::uint64_t seed, double seconds = 30.0) {
  Rng rng(seed);
  synth::UserProfile user;
  return synth::synthesize(synth::Scenario::pure_walking(seconds), user,
                           synth::SynthOptions{}, rng);
}

/// Deterministic per-sample jitter (no <random>, reproducible everywhere).
/// A pure sine repeats its sampled maximum exactly every period, which the
/// saturation auto-detector rightly reads as a clipping plateau — real
/// sensors never do that, so the fixture adds sensor-scale noise.
double jitter(std::size_t i) {
  const double x = std::sin(12.9898 * static_cast<double>(i + 1)) * 43758.5453;
  return x - std::floor(x) - 0.5;  // [-0.5, 0.5)
}

/// Oscillating trace (z-accel sine over gravity, small gyro sine) with a
/// known amplitude — handy when a test needs to reason about exact rails
/// and plateaus.
imu::Trace sine_trace(double seconds = 10.0, double fs = 100.0,
                      double amp = 5.0) {
  std::vector<imu::Sample> samples;
  const auto n = static_cast<std::size_t>(seconds * fs);
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    imu::Sample s;
    s.t = t;
    const double jd = 0.01 * jitter(i);
    s.accel = {0.3 * amp * std::sin(2.0 * M_PI * 1.7 * t + 0.3) + jd,
               0.2 * amp * std::sin(2.0 * M_PI * 2.3 * t + 1.1) + jd,
               kGravity + amp * std::sin(2.0 * M_PI * 2.0 * t) + jd};
    s.gyro = {0.8 * std::sin(2.0 * M_PI * 2.0 * t) + 0.1 * jd, 0.0,
              0.5 * std::cos(2.0 * M_PI * 1.3 * t) + 0.1 * jd};
    samples.push_back(s);
  }
  return imu::Trace(fs, std::move(samples));
}

/// The trace pushed sample by sample through the online engine, then
/// flushed.
std::vector<imu::RepairedSample> stream(const imu::Trace& trace) {
  imu::IncrementalQuality engine(trace.fs());
  std::vector<imu::RepairedSample> out;
  for (const imu::Sample& s : trace.samples()) engine.push(s, out);
  engine.flush(out);
  return out;
}

}  // namespace

// --------------------------------------------------------------------------
// False-positive guard: clean traces must produce zero flags.

TEST(Quality, CleanSynthesizedTraceHasNoFlags) {
  const auto r = walking(101);
  const auto report = imu::assess_and_repair(r.trace).report;
  EXPECT_FALSE(report.any_fault());
  EXPECT_EQ(report.repaired_samples, 0u);
  EXPECT_EQ(report.masked_samples, 0u);
  EXPECT_DOUBLE_EQ(report.clean_fraction, 1.0);
  EXPECT_TRUE(report.usable);
  ASSERT_EQ(report.flags.size(), r.trace.size());
  for (const auto f : report.flags) EXPECT_EQ(f, imu::kFlagClean);
}

TEST(Quality, CleanTraceRepairIsIdentity) {
  const auto r = walking(102);
  const auto repaired = imu::assess_and_repair(r.trace);
  ASSERT_EQ(repaired.trace.size(), r.trace.size());
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    EXPECT_EQ(repaired.trace[i].accel, r.trace[i].accel);
    EXPECT_EQ(repaired.trace[i].gyro, r.trace[i].gyro);
  }
}

TEST(Quality, PipelineUnchangedOnCleanTraces) {
  // With quality enabled (the default), a clean trace must produce the
  // bit-identical result of the quality-disabled pipeline: repair only
  // touches flagged samples, and a clean trace has none.
  const auto r = walking(103);
  core::PTrackConfig off;
  off.quality.enabled = false;
  core::PTrack with_quality;
  core::PTrack without(off);
  const auto a = with_quality.process(r.trace);
  const auto b = without.process(r.trace);
  EXPECT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].t, b.events[i].t);
    EXPECT_EQ(a.events[i].stride, b.events[i].stride);
  }
  EXPECT_DOUBLE_EQ(a.quality.clean_fraction, 1.0);
  EXPECT_EQ(a.degraded_steps(), 0u);
}

// --------------------------------------------------------------------------
// Detector duality with imu/faults.hpp.

TEST(Quality, DetectsInjectedDropouts) {
  const auto r = walking(104);
  Rng rng(11);
  const auto faulty = imu::inject_dropouts(r.trace, 30.0, 5, 12, rng);
  const auto report = imu::assess_and_repair(faulty).report;
  EXPECT_GT(report.dropout_samples, 0u);
  // Every flagged dropout sample really is inside a held run.
  for (std::size_t i = 1; i < faulty.size(); ++i) {
    if (report.flags[i] & imu::kFlagDropout) {
      const bool matches_prev = faulty[i].accel == faulty[i - 1].accel &&
                                faulty[i].gyro == faulty[i - 1].gyro;
      const bool matches_next = i + 1 < faulty.size() &&
                                faulty[i].accel == faulty[i + 1].accel &&
                                faulty[i].gyro == faulty[i + 1].gyro;
      EXPECT_TRUE(matches_prev || matches_next) << "sample " << i;
    }
  }
}

TEST(Quality, ShortHoldsAreNotDropouts) {
  // Two identical consecutive samples sit below the default run threshold
  // (a quantized sensor can legitimately repeat once).
  auto trace = sine_trace(5.0);
  auto& samples = trace.samples();
  samples[100] = samples[99];
  samples[100].t = 100.0 / trace.fs();
  const auto report = imu::assess_and_repair(trace).report;
  EXPECT_EQ(report.dropout_samples, 0u);
}

TEST(Quality, AutoDetectsSaturationPlateau) {
  const double limit = 12.0;  // clips the 5 m/s^2 sine around gravity
  const auto clipped = imu::clip_acceleration(sine_trace(), limit);
  const auto report = imu::assess_and_repair(clipped).report;
  EXPECT_GT(report.saturated_samples, 10u);
  for (std::size_t i = 0; i < clipped.size(); ++i) {
    if (report.flags[i] & imu::kFlagSaturated) {
      const double m = std::max({std::abs(clipped[i].accel.x),
                                 std::abs(clipped[i].accel.y),
                                 std::abs(clipped[i].accel.z)});
      EXPECT_GE(m, limit * (1.0 - 1e-9));
    }
  }
}

TEST(Quality, ExplicitSaturationLimitFlagsTheRail) {
  // A known full-scale range flags the clipped plateau; a range the signal
  // never reaches flags nothing.
  const auto base = sine_trace();  // z peaks near 14.8 m/s^2
  imu::QualityConfig cfg;
  cfg.saturation_limit = 12.0;
  const auto clipped = imu::clip_acceleration(base, 12.0);
  EXPECT_GT(imu::assess_and_repair(clipped, cfg).report.saturated_samples, 10u);

  imu::QualityConfig roomy;
  roomy.saturation_limit = 20.0;
  EXPECT_EQ(imu::assess_and_repair(base, roomy).report.saturated_samples, 0u);
}

TEST(Quality, GyroSaturationLimitFlagsTheRail) {
  const auto base = sine_trace();  // gyro.x peaks near 0.8 rad/s
  const auto clipped = imu::clip_gyro(base, 0.6);
  imu::QualityConfig cfg;
  cfg.gyro_saturation_limit = 0.6;
  EXPECT_GT(imu::assess_and_repair(clipped, cfg).report.saturated_samples, 10u);
  // Gyro saturation is explicit-only: without the limit, no auto-detect.
  EXPECT_EQ(imu::assess_and_repair(clipped).report.saturated_samples, 0u);
}

TEST(Quality, DetectsInjectedAccelAndGyroSpikes) {
  const auto base = sine_trace(30.0);
  Rng rng(12);
  const auto spiked = imu::inject_spikes(base, 20.0, 8.0, rng,
                                         imu::FaultChannels::Both);
  const auto report = imu::assess_and_repair(spiked).report;
  EXPECT_GT(report.spike_samples, 0u);
  // A spiked sample must differ from the clean base at that index.
  for (std::size_t i = 0; i < spiked.size(); ++i) {
    if (report.flags[i] & imu::kFlagSpike) {
      EXPECT_TRUE(!(spiked[i].accel == base[i].accel) ||
                  !(spiked[i].gyro == base[i].gyro))
          << "sample " << i;
    }
  }
}

TEST(Quality, FlagsNonFiniteAndNonphysicalCells) {
  auto trace = sine_trace(5.0);
  auto& samples = trace.samples();
  samples[50].accel.y = std::numeric_limits<double>::quiet_NaN();
  samples[120].gyro.z = std::numeric_limits<double>::infinity();
  samples[200].accel.x = 5.0e6;  // finite but ~500,000 g
  const auto report = imu::assess_and_repair(trace).report;
  EXPECT_EQ(report.nonfinite_samples, 3u);
  EXPECT_TRUE(report.flags[50] & imu::kFlagNonFinite);
  EXPECT_TRUE(report.flags[120] & imu::kFlagNonFinite);
  EXPECT_TRUE(report.flags[200] & imu::kFlagNonFinite);
  EXPECT_TRUE(report.usable);  // three bad cells out of 500
}

// --------------------------------------------------------------------------
// Repair pass.

TEST(Quality, RepairTouchesOnlyFlaggedSamples) {
  const auto r = walking(106);
  Rng rng(13);
  const auto faulty = imu::inject_dropouts(r.trace, 20.0, 4, 10, rng);
  const auto repaired = imu::assess_and_repair(faulty);
  ASSERT_EQ(repaired.trace.size(), faulty.size());
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    if (repaired.report.flags[i] == imu::kFlagClean) {
      EXPECT_EQ(repaired.trace[i].accel, faulty[i].accel) << "sample " << i;
      EXPECT_EQ(repaired.trace[i].gyro, faulty[i].gyro) << "sample " << i;
    }
  }
  EXPECT_EQ(repaired.report.repaired_samples + repaired.report.masked_samples,
            repaired.report.dropout_samples);
}

TEST(Quality, HeldDropoutDoesNotConfirmAutoRail) {
  // A dropout holding at the running maximum is one reading repeated, not
  // a clipping plateau: it must not confirm an auto rail (which would flag
  // and gap-fill every later peak above it as saturated).
  const auto r = walking(106);
  Rng rng(13);
  const auto faulty = imu::inject_dropouts(r.trace, 20.0, 4, 10, rng);
  std::size_t dropout = 0, saturated = 0;
  for (const imu::RepairedSample& s : stream(faulty)) {
    dropout += (s.flags & imu::kFlagDropout) ? 1 : 0;
    saturated += (s.flags & imu::kFlagSaturated) ? 1 : 0;
  }
  EXPECT_GT(dropout, 0u);
  EXPECT_EQ(saturated, 0u);
}

TEST(Quality, ShortGapsInterpolatedLongGapsMasked) {
  auto trace = sine_trace(20.0);  // fs=100 -> max_fill 25 samples
  auto& samples = trace.samples();
  // Short held run: 10 samples (repairable).
  for (std::size_t i = 300; i < 310; ++i) {
    samples[i].accel = samples[299].accel;
    samples[i].gyro = samples[299].gyro;
  }
  // Long held run: 120 samples (must be masked, not bridged).
  for (std::size_t i = 800; i < 920; ++i) {
    samples[i].accel = samples[799].accel;
    samples[i].gyro = samples[799].gyro;
  }
  const auto repaired = imu::assess_and_repair(trace);
  EXPECT_GE(repaired.report.repaired_samples, 9u);
  EXPECT_GE(repaired.report.masked_samples, 119u);
  EXPECT_TRUE(repaired.report.flags[305] & imu::kFlagRepaired);
  EXPECT_TRUE(repaired.report.flags[850] & imu::kFlagMasked);

  // Interpolation reconstructs the sine reasonably inside the short gap...
  const auto clean = sine_trace(20.0);
  EXPECT_NEAR(repaired.trace[305].accel.z, clean[305].accel.z, 1.5);
  // ...while the masked stretch holds the neutral (≈ mean) value, far from
  // any attempt to extrapolate 1.2 s of oscillation.
  const double masked_z = repaired.trace[850].accel.z;
  EXPECT_NEAR(masked_z, kGravity, 1.5);
  EXPECT_EQ(repaired.trace[850].accel, repaired.trace[900].accel);
}

TEST(Quality, UnusableTraceIsReported) {
  std::vector<imu::Sample> samples(256);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].t = static_cast<double>(i) / 100.0;
    samples[i].accel = {1.0e9, -1.0e9, 1.0e9};
    samples[i].gyro = {1.0e9, 1.0e9, -1.0e9};
  }
  const imu::Trace garbage(100.0, std::move(samples));
  const auto report = imu::assess_and_repair(garbage).report;
  EXPECT_FALSE(report.usable);
  EXPECT_EQ(report.nonfinite_samples, garbage.size());

  // And the pipeline refuses it loudly instead of emitting fiction.
  core::PTrack tracker;
  EXPECT_THROW(tracker.process(garbage), Error);
}

TEST(Quality, DisabledConfigIsIdentityAndClean) {
  const auto r = walking(107, 10.0);
  Rng rng(14);
  const auto faulty = imu::inject_spikes(r.trace, 30.0, 8.0, rng);
  imu::QualityConfig cfg;
  cfg.enabled = false;
  const auto repaired = imu::assess_and_repair(faulty, cfg);
  EXPECT_FALSE(repaired.report.any_fault());
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    EXPECT_EQ(repaired.trace[i].accel, faulty[i].accel);
  }
}

// --------------------------------------------------------------------------
// Localization and the gap bridge.

TEST(Quality, FlagsLocalizeFaults) {
  auto trace = sine_trace(10.0);
  auto& samples = trace.samples();
  for (std::size_t i = 320; i < 330; ++i) {  // one 10-sample hold
    samples[i].accel = samples[319].accel;
    samples[i].gyro = samples[319].gyro;
  }
  const auto report = imu::assess_and_repair(trace).report;
  ASSERT_EQ(report.flags.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i >= 320 && i < 330) {
      EXPECT_EQ(report.flags[i], imu::kFlagDropout | imu::kFlagRepaired)
          << "sample " << i;
    } else {
      EXPECT_EQ(report.flags[i], imu::kFlagClean) << "sample " << i;
    }
  }
  EXPECT_EQ(report.masked_samples, 0u);  // repaired, not masked
}

TEST(Quality, GapFillBridgesFromTheCleanSampleBeforeTheGap) {
  // Every sample of a held run is bridged by one cubic Hermite through the
  // clean samples on either side (tangents from their clean outer
  // neighbors), not from the previous gap sample's held value.
  const auto clean = sine_trace(10.0);
  auto trace = clean;
  auto& samples = trace.samples();
  const std::size_t a = 300, b = 310;  // held run [a, b)
  for (std::size_t i = a; i < b; ++i) {
    samples[i].accel = samples[a - 1].accel;
    samples[i].gyro = samples[a - 1].gyro;
  }
  const auto out = stream(trace);
  ASSERT_EQ(out.size(), trace.size());
  const auto span = static_cast<double>(b - a + 1);
  const auto bridge = [&](std::size_t i, double v0, double vm, double v1,
                          double vp) {
    const double m0 = v0 - vm;
    const double m1 = vp - v1;
    const double u = static_cast<double>(i - a + 1) / span;
    const double u2 = u * u;
    const double u3 = u2 * u;
    return (2.0 * u3 - 3.0 * u2 + 1.0) * v0 +
           (u3 - 2.0 * u2 + u) * (m0 * span) + (-2.0 * u3 + 3.0 * u2) * v1 +
           (u3 - u2) * (m1 * span);
  };
  for (std::size_t i = a; i < b; ++i) {
    ASSERT_TRUE(out[i].flags & imu::kFlagRepaired) << i;
    for (Vec3 imu::Sample::*ch : {&imu::Sample::accel, &imu::Sample::gyro}) {
      for (double Vec3::*c : {&Vec3::x, &Vec3::y, &Vec3::z}) {
        const double want =
            bridge(i, clean[a - 1].*ch.*c, clean[a - 2].*ch.*c,
                   clean[b].*ch.*c, clean[b + 1].*ch.*c);
        EXPECT_NEAR(out[i].sample.*ch.*c, want, 1e-12) << "sample " << i;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Quality propagation into TrackResult.

TEST(Quality, TrackResultCarriesDegradationFractions) {
  const auto r = walking(108, 60.0);
  Rng rng(15);
  const auto faulty = imu::inject_dropouts(r.trace, 30.0, 5, 15, rng);
  core::PTrack tracker;
  const auto result = tracker.process(faulty);
  EXPECT_LT(result.quality.clean_fraction, 1.0);
  EXPECT_GT(result.quality.repaired_fraction + result.quality.masked_fraction,
            0.0);
  EXPECT_GT(result.quality.dropout_samples, 0u);
  EXPECT_TRUE(result.quality.degraded());
  for (const auto& e : result.events) {
    EXPECT_GE(e.quality, 0.0);
    EXPECT_LE(e.quality, 1.0);
  }
}

TEST(Quality, Preconditions) {
  const auto trace = sine_trace(2.0);
  imu::QualityConfig cfg;
  cfg.min_dropout_run = 0;
  EXPECT_THROW(imu::assess_and_repair(trace, cfg), InvalidArgument);
  cfg = {};
  cfg.spike_delta = 0.0;
  EXPECT_THROW(imu::assess_and_repair(trace, cfg), InvalidArgument);
  cfg = {};
  cfg.min_usable_fraction = 1.5;
  EXPECT_THROW(imu::assess_and_repair(trace, cfg), InvalidArgument);
}
