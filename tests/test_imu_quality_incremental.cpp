// Parity tests for the online quality stage (imu::IncrementalQuality), the
// library's one quality engine, against a whole-trace reference detector
// kept here: the contract documented in imu/quality.hpp is the same flags
// and the same repair actions sample-for-sample, with divergence confined
// to the documented seams (running masking neutral and auto rail,
// pending-tail retro-flagging at decision boundaries).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "imu/faults.hpp"
#include "imu/quality.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

// ---------------------------------------------------------------------------
// Whole-trace reference: detectors that see the entire trace, a repair
// planner over maximal flagged runs, and a whole-trace masking neutral.

void set_flag(std::uint8_t& f, std::uint8_t bit) {
  f = static_cast<std::uint8_t>(f | bit);
}

bool finite_and_bounded(double v, double limit) {
  return std::isfinite(v) && std::abs(v) <= limit;
}

bool sample_physical(const imu::Sample& s) {
  return finite_and_bounded(s.accel.x, imu::kNonphysicalAccel) &&
         finite_and_bounded(s.accel.y, imu::kNonphysicalAccel) &&
         finite_and_bounded(s.accel.z, imu::kNonphysicalAccel) &&
         finite_and_bounded(s.gyro.x, imu::kNonphysicalGyro) &&
         finite_and_bounded(s.gyro.y, imu::kNonphysicalGyro) &&
         finite_and_bounded(s.gyro.z, imu::kNonphysicalGyro);
}

double max_abs_accel(const imu::Sample& s) {
  return std::max({std::abs(s.accel.x), std::abs(s.accel.y),
                   std::abs(s.accel.z)});
}

double max_abs_gyro(const imu::Sample& s) {
  return std::max({std::abs(s.gyro.x), std::abs(s.gyro.y),
                   std::abs(s.gyro.z)});
}

void detect_nonfinite(const std::vector<imu::Sample>& samples,
                      std::vector<std::uint8_t>& flags) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!sample_physical(samples[i])) {
      set_flag(flags[i], imu::kFlagNonFinite);
    }
  }
}

void detect_dropouts(const std::vector<imu::Sample>& samples,
                     const imu::QualityConfig& cfg,
                     std::vector<std::uint8_t>& flags) {
  // A held run repeats the *whole* sample (accel and gyro): a dropped
  // transport packet loses both, and requiring both makes the detector
  // immune to one quantized channel idling while the other still moves.
  std::size_t i = 1;
  while (i < samples.size()) {
    const bool held = (flags[i] & imu::kFlagNonFinite) == 0 &&
                      (flags[i - 1] & imu::kFlagNonFinite) == 0 &&
                      samples[i].accel == samples[i - 1].accel &&
                      samples[i].gyro == samples[i - 1].gyro;
    if (!held) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < samples.size() && (flags[j] & imu::kFlagNonFinite) == 0 &&
           samples[j].accel == samples[j - 1].accel &&
           samples[j].gyro == samples[j - 1].gyro) {
      ++j;
    }
    if (j - i >= cfg.min_dropout_run) {
      for (std::size_t k = i; k < j; ++k) set_flag(flags[k], imu::kFlagDropout);
    }
    i = j;
  }
}

void detect_saturation(const std::vector<imu::Sample>& samples,
                       const imu::QualityConfig& cfg,
                       std::vector<std::uint8_t>& flags) {
  double accel_limit = cfg.saturation_limit;
  if (accel_limit <= 0.0) {
    // Auto-detect: clipping pins several samples to the exact same rail
    // value — a continuous noisy signal never repeats its maximum exactly.
    double rail = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if ((flags[i] & imu::kFlagNonFinite) == 0) {
        rail = std::max(rail, max_abs_accel(samples[i]));
      }
    }
    std::size_t at_rail = 0;
    if (rail > 1.2 * kGravity) {  // below that it is just gravity at rest
      for (std::size_t i = 0; i < samples.size(); ++i) {
        if ((flags[i] & imu::kFlagNonFinite) == 0 &&
            max_abs_accel(samples[i]) >= rail * (1.0 - 1e-12)) {
          ++at_rail;
        }
      }
    }
    if (at_rail >= imu::kMinSaturationPlateau) accel_limit = rail;
  }
  if (accel_limit > 0.0) {
    const double thr = accel_limit * (1.0 - 1e-9);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if ((flags[i] & imu::kFlagNonFinite) == 0 &&
          max_abs_accel(samples[i]) >= thr) {
        set_flag(flags[i], imu::kFlagSaturated);
      }
    }
  }
  if (cfg.gyro_saturation_limit > 0.0) {
    const double thr = cfg.gyro_saturation_limit * (1.0 - 1e-9);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if ((flags[i] & imu::kFlagNonFinite) == 0 &&
          max_abs_gyro(samples[i]) >= thr) {
        set_flag(flags[i], imu::kFlagSaturated);
      }
    }
  }
}

/// Excursion-and-return: `cur` departs from BOTH neighbors by more than
/// `delta`, in the same direction.
bool excursion(double prev, double cur, double next, double delta) {
  const double d_prev = cur - prev;
  const double d_next = cur - next;
  return std::abs(d_prev) > delta && std::abs(d_next) > delta &&
         d_prev * d_next > 0.0;
}

void detect_component_spikes(const std::vector<imu::Sample>& samples,
                             double delta, double Vec3::*comp,
                             Vec3 imu::Sample::*channel,
                             std::vector<std::uint8_t>& flags) {
  for (std::size_t i = 1; i + 1 < samples.size(); ++i) {
    if (flags[i] != imu::kFlagClean) continue;
    if ((flags[i - 1] | flags[i + 1]) & imu::kFlagNonFinite) continue;
    if (excursion(samples[i - 1].*channel.*comp, samples[i].*channel.*comp,
                  samples[i + 1].*channel.*comp, delta)) {
      set_flag(flags[i], imu::kFlagSpike);
    }
  }
}

void detect_spikes(const std::vector<imu::Sample>& samples,
                   const imu::QualityConfig& cfg,
                   std::vector<std::uint8_t>& flags) {
  for (double Vec3::*comp : {&Vec3::x, &Vec3::y, &Vec3::z}) {
    detect_component_spikes(samples, cfg.spike_delta, comp,
                            &imu::Sample::accel, flags);
    detect_component_spikes(samples, imu::kGyroSpikeDelta, comp,
                            &imu::Sample::gyro, flags);
  }
}

double hermite_point(double p0, double m0, double p1, double m1, double span,
                     double u) {
  const double u2 = u * u;
  const double u3 = u2 * u;
  const double h00 = 2.0 * u3 - 3.0 * u2 + 1.0;
  const double h10 = u3 - 2.0 * u2 + u;
  const double h01 = -2.0 * u3 + 3.0 * u2;
  const double h11 = u3 - u2;
  return h00 * p0 + h10 * (m0 * span) + h01 * p1 + h11 * (m1 * span);
}

/// Cubic Hermite fill of one component over the gap [a, b) using the clean
/// endpoint samples a-1 and b, with one-sided tangents when the outer
/// neighbors are clean too.
void hermite_fill(std::vector<imu::Sample>& samples,
                  const std::vector<std::uint8_t>& flags, std::size_t a,
                  std::size_t b, double Vec3::*comp,
                  Vec3 imu::Sample::*channel) {
  const std::size_t n = samples.size();
  const double p0 = samples[a - 1].*channel.*comp;
  const double p1 = samples[b].*channel.*comp;
  const auto span = static_cast<double>(b - a + 1);
  const double secant = (p1 - p0) / span;
  const double m0 = (a >= 2 && flags[a - 2] == imu::kFlagClean)
                        ? samples[a - 1].*channel.*comp -
                              samples[a - 2].*channel.*comp
                        : secant;
  const double m1 = (b + 1 < n && flags[b + 1] == imu::kFlagClean)
                        ? samples[b + 1].*channel.*comp -
                              samples[b].*channel.*comp
                        : secant;
  for (std::size_t i = a; i < b; ++i) {
    const double u = static_cast<double>(i - a + 1) / span;
    samples[i].*channel.*comp = hermite_point(p0, m0, p1, m1, span, u);
  }
}

struct Reference {
  std::vector<imu::Sample> samples;  ///< repaired values
  std::vector<std::uint8_t> flags;
};

Reference reference_repair(const imu::Trace& trace,
                           const imu::QualityConfig& cfg) {
  const std::size_t n = trace.size();
  Reference ref{trace.samples(), std::vector<std::uint8_t>(n, imu::kFlagClean)};
  const std::vector<imu::Sample>& samples = trace.samples();
  std::vector<std::uint8_t>& flags = ref.flags;
  detect_nonfinite(samples, flags);
  detect_dropouts(samples, cfg, flags);
  detect_saturation(samples, cfg, flags);
  detect_spikes(samples, cfg, flags);

  // Neutral hold value for masked regions: the whole-trace mean clean
  // sample.
  Vec3 neutral_accel{0.0, 0.0, kGravity};
  Vec3 neutral_gyro{};
  std::size_t clean_count = 0;
  Vec3 accel_sum{};
  Vec3 gyro_sum{};
  for (std::size_t i = 0; i < n; ++i) {
    if (flags[i] == imu::kFlagClean) {
      accel_sum += samples[i].accel;
      gyro_sum += samples[i].gyro;
      ++clean_count;
    }
  }
  if (clean_count > 0) {
    neutral_accel = accel_sum / static_cast<double>(clean_count);
    neutral_gyro = gyro_sum / static_cast<double>(clean_count);
  }

  const auto max_fill = static_cast<std::size_t>(
      std::llround(imu::kMaxFillS * trace.fs()));

  // Repair plan over maximal flagged runs. Interpolation needs a clean
  // sample on both sides; runs that are too long, touch a trace edge, or
  // carry no usable endpoints are hard-masked instead.
  std::size_t i = 0;
  while (i < n) {
    if (flags[i] == imu::kFlagClean) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < n && flags[j] != imu::kFlagClean) ++j;
    const bool fillable = (j - i) <= max_fill && i > 0 && j < n;
    for (std::size_t k = i; k < j; ++k) {
      set_flag(flags[k], fillable ? imu::kFlagRepaired : imu::kFlagMasked);
    }
    if (fillable) {
      for (double Vec3::*comp : {&Vec3::x, &Vec3::y, &Vec3::z}) {
        hermite_fill(ref.samples, flags, i, j, comp, &imu::Sample::accel);
        hermite_fill(ref.samples, flags, i, j, comp, &imu::Sample::gyro);
      }
    } else {
      for (std::size_t k = i; k < j; ++k) {
        ref.samples[k].accel = neutral_accel;
        ref.samples[k].gyro = neutral_gyro;
      }
    }
    i = j;
  }
  return ref;
}

// ---------------------------------------------------------------------------

imu::Trace walking_trace(double seconds, std::uint64_t seed) {
  Rng rng(seed);
  synth::UserProfile user;
  return synth::synthesize(synth::Scenario::pure_walking(seconds), user,
                           synth::SynthOptions{}, rng)
      .trace;
}

struct StreamResult {
  std::vector<imu::RepairedSample> out;
  std::size_t max_pending = 0;
};

StreamResult stream_through(imu::IncrementalQuality& inc,
                            const imu::Trace& trace) {
  StreamResult r;
  std::vector<imu::RepairedSample> buf;
  for (const imu::Sample& s : trace.samples()) {
    buf.clear();
    inc.push(s, buf);
    r.out.insert(r.out.end(), buf.begin(), buf.end());
    r.max_pending = std::max(r.max_pending, inc.pending());
  }
  buf.clear();
  inc.flush(buf);
  r.out.insert(r.out.end(), buf.begin(), buf.end());
  return r;
}

double sample_l1(const imu::Sample& a, const imu::Sample& b) {
  return std::abs(a.accel.x - b.accel.x) + std::abs(a.accel.y - b.accel.y) +
         std::abs(a.accel.z - b.accel.z) + std::abs(a.gyro.x - b.gyro.x) +
         std::abs(a.gyro.y - b.gyro.y) + std::abs(a.gyro.z - b.gyro.z);
}

/// Asserts the parity contract: stream order and count preserved, flags
/// equal to the reference up to `flag_budget` boundary samples, and values
/// bit-exact wherever neither side flagged the sample (repair rewrites only
/// flagged samples; divergence on those is bounded by the running-neutral
/// seam). Gap-filled samples whose flags agree carry the reference's fill
/// values.
void expect_parity(const imu::Trace& trace, const imu::QualityConfig& cfg,
                   std::size_t flag_budget) {
  const Reference ref = reference_repair(trace, cfg);
  imu::IncrementalQuality inc(trace.fs(), cfg);
  const StreamResult r = stream_through(inc, trace);

  ASSERT_EQ(r.out.size(), trace.size());
  EXPECT_LE(r.max_pending, inc.latency_bound());

  std::size_t flag_mismatches = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint8_t bf = ref.flags[i];
    const std::uint8_t sf = r.out[i].flags;
    if (bf != sf) ++flag_mismatches;
    if (bf == 0 && sf == 0) {
      EXPECT_EQ(sample_l1(ref.samples[i], r.out[i].sample), 0.0)
          << "clean sample rewritten at i=" << i;
    }
    if (bf == sf && (sf & imu::kFlagRepaired)) {
      EXPECT_LE(sample_l1(ref.samples[i], r.out[i].sample), 1e-9)
          << "gap fill differs at i=" << i;
    }
    // Whatever the repair did, the output must be finite and physical.
    EXPECT_TRUE(std::isfinite(r.out[i].sample.accel.x) &&
                std::isfinite(r.out[i].sample.accel.y) &&
                std::isfinite(r.out[i].sample.accel.z) &&
                std::isfinite(r.out[i].sample.gyro.x) &&
                std::isfinite(r.out[i].sample.gyro.y) &&
                std::isfinite(r.out[i].sample.gyro.z));
  }
  EXPECT_LE(flag_mismatches, flag_budget);

  // The cumulative counters agree with what was actually emitted.
  const imu::IncrementalQualityCounts& c = inc.counts();
  EXPECT_EQ(c.emitted, trace.size());
  std::size_t repaired = 0, masked = 0;
  for (const imu::RepairedSample& s : r.out) {
    repaired += (s.flags & imu::kFlagRepaired) ? 1 : 0;
    masked += (s.flags & imu::kFlagMasked) ? 1 : 0;
  }
  EXPECT_EQ(c.repaired, repaired);
  EXPECT_EQ(c.masked, masked);
}

}  // namespace

TEST(IncrementalQuality, CleanTracePassesThroughBitExact) {
  const imu::Trace t = walking_trace(30.0, 620);
  imu::IncrementalQuality inc(t.fs());
  const StreamResult r = stream_through(inc, t);
  ASSERT_EQ(r.out.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(r.out[i].flags, imu::kFlagClean);
    EXPECT_EQ(sample_l1(t[i], r.out[i].sample), 0.0);
  }
  EXPECT_EQ(inc.counts().dropout + inc.counts().saturated +
                inc.counts().spike + inc.counts().nonfinite,
            0u);
}

TEST(IncrementalQuality, ShortDropoutsMatchBatchFlags) {
  const imu::Trace t = walking_trace(30.0, 621);
  Rng rng(6210);
  // Runs short enough to gap-fill (<= kMaxFillS at 100 Hz = 25 samples).
  const imu::Trace faulty = imu::inject_dropouts(t, 6.0, 5, 20, rng);
  expect_parity(faulty, {}, 0);
}

TEST(IncrementalQuality, LongDropoutsAreMaskedLikeBatch) {
  const imu::Trace t = walking_trace(30.0, 622);
  Rng rng(6220);
  const imu::Trace faulty = imu::inject_dropouts(t, 3.0, 40, 80, rng);
  expect_parity(faulty, {}, 0);
  // And the masked values sit near the reference neutral (running vs
  // whole-trace clean mean — the documented divergence stays small).
  const Reference ref = reference_repair(faulty, {});
  imu::IncrementalQuality inc(faulty.fs());
  const StreamResult r = stream_through(inc, faulty);
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    if (r.out[i].flags & imu::kFlagMasked) {
      EXPECT_LT(sample_l1(ref.samples[i], r.out[i].sample), 2.0);
    }
  }
}

TEST(IncrementalQuality, ExplicitRailSaturationMatchesBatchExactly) {
  const imu::Trace t = walking_trace(30.0, 623);
  const imu::Trace clipped = imu::clip_acceleration(t, 25.0);
  imu::QualityConfig cfg;
  cfg.saturation_limit = 25.0;
  expect_parity(clipped, cfg, 0);
}

TEST(IncrementalQuality, AutoDetectedRailConverges) {
  const imu::Trace t = walking_trace(30.0, 624);
  const imu::Trace clipped = imu::clip_acceleration(t, 25.0);
  // Auto-detect uses a running rail estimate; once the plateau confirms,
  // flags match the reference (samples emitted before confirmation may keep their
  // pre-confirmation flags — allow a small boundary budget).
  expect_parity(clipped, {}, 8);
}

TEST(IncrementalQuality, SpikesMatchBatchUpToDecisionBoundaries) {
  const imu::Trace t = walking_trace(30.0, 625);
  Rng rng(6250);
  const imu::Trace spiky = imu::inject_spikes(t, 8.0, 5.0, rng);
  // Retro-flagging reaches only into the pending tail, so a handful of
  // boundary samples may carry different detector bits (quality.hpp).
  expect_parity(spiky, {}, 8);
}

TEST(IncrementalQuality, NonFiniteCellsAreNeutralizedLikeBatch) {
  imu::Trace t = walking_trace(30.0, 626);
  t.samples()[500].accel.x = std::nan("");
  t.samples()[1200].gyro.y = 1.0e9;  // nonphysical magnitude
  t.samples()[2000].accel.z = std::numeric_limits<double>::infinity();
  expect_parity(t, {}, 0);
}

TEST(IncrementalQuality, LatencyIsBoundedAndFlushDrainsEverything) {
  const imu::Trace t = walking_trace(20.0, 627);
  Rng rng(6270);
  const imu::Trace faulty = imu::inject_dropouts(t, 8.0, 10, 60, rng);
  imu::IncrementalQuality inc(faulty.fs());
  std::vector<imu::RepairedSample> buf;
  std::size_t emitted = 0;
  for (const imu::Sample& s : faulty.samples()) {
    buf.clear();
    inc.push(s, buf);
    emitted += buf.size();
    ASSERT_LE(inc.pending(), inc.latency_bound());
  }
  buf.clear();
  inc.flush(buf);
  emitted += buf.size();
  EXPECT_EQ(emitted, faulty.size());
  EXPECT_EQ(inc.pending(), 0u);
}

TEST(IncrementalQuality, StreamContinuesAfterFlush) {
  const imu::Trace t = walking_trace(20.0, 628);
  imu::IncrementalQuality inc(t.fs());
  std::vector<imu::RepairedSample> buf;
  std::size_t emitted = 0;
  const std::size_t half = t.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    buf.clear();
    inc.push(t[i], buf);
    emitted += buf.size();
  }
  buf.clear();
  inc.flush(buf);  // stream pause
  emitted += buf.size();
  EXPECT_EQ(emitted, half);
  for (std::size_t i = half; i < t.size(); ++i) {
    buf.clear();
    inc.push(t[i], buf);
    emitted += buf.size();
  }
  buf.clear();
  inc.flush(buf);
  emitted += buf.size();
  EXPECT_EQ(emitted, t.size());
}

// The online stage decides a clean sample after a clean held-back one on a
// direct path (imu/quality.hpp, "Cost"); an isolated spike between clean
// neighbors is decided there too, and must be flagged exactly where the
// whole-trace detector flags it.
TEST(Quality, IncrementalFastPathFlagsEveryIsolatedSpike) {
  const imu::Trace clean = walking_trace(60.0, 77);
  Rng rng(7700);
  const imu::Trace spiky = imu::inject_spikes(clean, 6.0, 5.0, rng,
                                              imu::FaultChannels::Both);
  const Reference ref = reference_repair(spiky, {});
  imu::IncrementalQuality inc(spiky.fs());
  std::vector<imu::RepairedSample> out;
  for (const imu::Sample& s : spiky.samples()) inc.push(s, out);
  inc.flush(out);
  ASSERT_EQ(out.size(), spiky.size());
  std::size_t spikes = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].flags & imu::kFlagSpike, ref.flags[i] & imu::kFlagSpike)
        << "i=" << i;
    spikes += (ref.flags[i] & imu::kFlagSpike) ? 1 : 0;
  }
  EXPECT_GE(spikes, 3u);
  EXPECT_EQ(inc.counts().spike, spikes);
}
