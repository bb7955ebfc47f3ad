// Tests for the projection frontend options: windowed anterior estimation
// (turning routes), the attitude-filter mode, and agreement of the float32
// and double instantiations of project_channels_into.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/angles.hpp"
#include "common/error.hpp"
#include "core/frontend.hpp"
#include "core/ptrack.hpp"
#include "dsp/workspace.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

synth::SynthResult turning_walk(std::uint64_t seed) {
  Rng rng(seed);
  synth::UserProfile user;
  // An L-shaped walk: heading changes by 90 degrees halfway.
  synth::Scenario scenario;
  scenario.walk(30.0, 0.0, 0.0).walk(30.0, 0.0, kPi / 2);
  return synth::synthesize(scenario, user, synth::SynthOptions{}, rng);
}

}  // namespace

TEST(Frontend, ProjectTraceBasicShapes) {
  Rng rng(801);
  synth::UserProfile user;
  const auto r = synth::synthesize(synth::Scenario::pure_walking(20.0), user,
                                   synth::SynthOptions{}, rng);
  const auto p = core::project_trace(r.trace, 5.0);
  EXPECT_EQ(p.vertical.size(), r.trace.size());
  EXPECT_EQ(p.anterior.size(), r.trace.size());
  EXPECT_DOUBLE_EQ(p.fs, r.trace.fs());
}

TEST(Frontend, WindowedAnteriorMatchesGlobalOnStraightWalk) {
  Rng rng(802);
  synth::UserProfile user;
  const auto r = synth::synthesize(synth::Scenario::pure_walking(30.0), user,
                                   synth::SynthOptions{}, rng);
  const auto global = core::project_trace(r.trace, 5.0, 0.0);
  const auto windowed = core::project_trace(r.trace, 5.0, 10.0);
  // Same direction up to sign per window; compare energy, not samples.
  double eg = 0.0;
  double ew = 0.0;
  for (std::size_t i = 0; i < global.anterior.size(); ++i) {
    eg += global.anterior[i] * global.anterior[i];
    ew += windowed.anterior[i] * windowed.anterior[i];
  }
  EXPECT_NEAR(ew / eg, 1.0, 0.05);
}

TEST(Frontend, WindowedAnteriorHelpsOnTurningRoute) {
  const auto r = turning_walk(803);
  // Anterior energy with the global fit is diluted across the two
  // headings; the windowed fit recovers it.
  const auto global = core::project_trace(r.trace, 5.0, 0.0);
  const auto windowed = core::project_trace(r.trace, 5.0, 10.0);
  double eg = 0.0;
  double ew = 0.0;
  for (std::size_t i = 0; i < global.anterior.size(); ++i) {
    eg += global.anterior[i] * global.anterior[i];
    ew += windowed.anterior[i] * windowed.anterior[i];
  }
  EXPECT_GT(ew, eg);
}

TEST(Frontend, CountingOnTurningRouteWithWindowedAnterior) {
  const auto r = turning_walk(804);
  synth::UserProfile user;
  core::PTrackConfig cfg;
  cfg.counter.anterior_window_s = 10.0;
  cfg.stride.profile = {user.arm_length, user.leg_length, 2.0};
  core::PTrack tracker(cfg);
  const auto res = tracker.process(r.trace);
  const double truth = static_cast<double>(r.truth.step_count());
  EXPECT_NEAR(static_cast<double>(res.steps), truth, 0.12 * truth);
}

TEST(Frontend, AttitudeModeMatchesBatchOnPlatformCorrectedTrace) {
  // On a platform-corrected trace (constant frame) the attitude filter
  // converges to the same fixed up vector, so counting must agree.
  Rng rng(805);
  synth::UserProfile user;
  const auto r = synth::synthesize(synth::Scenario::pure_walking(60.0), user,
                                   synth::SynthOptions{}, rng);
  core::PTrackConfig batch_cfg;
  core::PTrackConfig attitude_cfg;
  attitude_cfg.counter.use_attitude_filter = true;
  core::PTrack batch(batch_cfg);
  core::PTrack attitude(attitude_cfg);
  const double b = static_cast<double>(batch.process(r.trace).steps);
  const double a = static_cast<double>(attitude.process(r.trace).steps);
  EXPECT_NEAR(a, b, 0.08 * b + 2.0);
}

TEST(Frontend, Preconditions) {
  Rng rng(806);
  synth::UserProfile user;
  const auto r = synth::synthesize(synth::Scenario::pure_walking(5.0), user,
                                   synth::SynthOptions{}, rng);
  EXPECT_THROW(core::project_trace(r.trace.slice(0, 8), 5.0), InvalidArgument);
  EXPECT_THROW(core::project_trace(r.trace, 0.0), InvalidArgument);
  // The float instantiation has no attitude-filter (per-sample up) path.
  const std::vector<float> xf(64, 0.0F);
  const std::vector<float> zf(64, static_cast<float>(kGravity));
  const std::vector<Vec3> ups(64, kVertical);
  dsp::Workspace ws;
  core::ProjectedChannels<float> out;
  EXPECT_THROW(core::project_channels_into<float>(xf, xf, zf, 100.0, 5.0, 0.0,
                                                  ups, ws, nullptr, {}, out),
               InvalidArgument);
}

namespace {

/// Raw accel channels of a trace in both precisions.
struct RawChannels {
  std::vector<double> x, y, z;
  std::vector<float> xf, yf, zf;

  explicit RawChannels(const imu::Trace& trace)
      : x(trace.accel_axis(0)),
        y(trace.accel_axis(1)),
        z(trace.accel_axis(2)),
        xf(x.begin(), x.end()),
        yf(y.begin(), y.end()),
        zf(z.begin(), z.end()) {}

  [[nodiscard]] std::size_t size() const { return x.size(); }
};

/// Largest |float - double| over both projected channels, relative to the
/// double channels' peak magnitude.
double relative_gap(const core::ProjectedChannels<double>& d,
                    const core::ProjectedChannels<float>& f) {
  EXPECT_EQ(d.vertical.size(), f.vertical.size());
  EXPECT_EQ(d.anterior.size(), f.anterior.size());
  EXPECT_EQ(d.fs, f.fs);
  double peak = 0.0;
  double gap = 0.0;
  for (std::size_t i = 0; i < d.vertical.size(); ++i) {
    peak = std::max({peak, std::abs(d.vertical[i]), std::abs(d.anterior[i])});
    gap = std::max(
        {gap, std::abs(d.vertical[i] - static_cast<double>(f.vertical[i])),
         std::abs(d.anterior[i] - static_cast<double>(f.anterior[i]))});
  }
  return gap / peak;
}

// Float rounding through the projections and both zero-phase filters; a
// real divergence (a flipped axis, a wrong window) is O(1).
constexpr double kF32Tolerance = 1e-4;

}  // namespace

TEST(Frontend, Float32ProjectionMatchesDouble) {
  const auto r = turning_walk(807);
  const RawChannels raw(r.trace);
  const double fs = r.trace.fs();
  dsp::Workspace ws;
  core::ProjectedChannels<double> d;
  core::ProjectedChannels<float> f;

  // Global and windowed anterior fits over the whole trace.
  for (const double window_s : {0.0, 10.0}) {
    core::project_channels_into<double>(raw.x, raw.y, raw.z, fs, 5.0,
                                        window_s, {}, ws, nullptr, {}, d);
    core::project_channels_into<float>(raw.xf, raw.yf, raw.zf, fs, 5.0,
                                       window_s, {}, ws, nullptr, {}, f);
    EXPECT_LT(relative_gap(d, f), kF32Tolerance) << "window " << window_s;
  }

  // Streaming-style hops: a short tail projected with its axes pinned to a
  // longer history, and the anterior sign carried across hops by a seam.
  core::ProjectionSeam seam_d;
  core::ProjectionSeam seam_f;
  const std::size_t tail = 500;
  const std::size_t history = 2000;
  for (std::size_t end = history; end <= raw.size(); end += 700) {
    const std::size_t b = end - tail;
    const std::size_t h = end - history;
    const auto sub = [&](const auto& c, std::size_t from) {
      return std::span(c).subspan(from, end - from);
    };
    core::project_channels_into<double>(
        sub(raw.x, b), sub(raw.y, b), sub(raw.z, b), fs, 5.0, 0.0, {}, ws,
        &seam_d, {sub(raw.x, h), sub(raw.y, h), sub(raw.z, h)}, d);
    core::project_channels_into<float>(
        sub(raw.xf, b), sub(raw.yf, b), sub(raw.zf, b), fs, 5.0, 0.0, {}, ws,
        &seam_f, {sub(raw.xf, h), sub(raw.yf, h), sub(raw.zf, h)}, f);
    EXPECT_LT(relative_gap(d, f), kF32Tolerance) << "hop ending at " << end;
    EXPECT_GT(seam_d.prev_anterior_dir.dot(seam_f.prev_anterior_dir),
              1.0 - 1e-6)
        << "hop ending at " << end;
  }
}
