// Tests for the projection frontend options: windowed anterior estimation
// (turning routes) and the streaming stage's carried low-pass state.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/angles.hpp"
#include "common/error.hpp"
#include "core/frontend.hpp"
#include "core/ptrack.hpp"
#include "core/stages.hpp"
#include "imu/sample_ring.hpp"
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

TEST(Frontend, Preconditions) {
  Rng rng(806);
  synth::UserProfile user;
  const auto r = synth::synthesize(synth::Scenario::pure_walking(5.0), user,
                                   synth::SynthOptions{}, rng);
  EXPECT_THROW(core::project_trace(r.trace.slice(0, 8), 5.0), InvalidArgument);
  EXPECT_THROW(core::project_trace(r.trace, 0.0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Carried low-pass state: the streaming ProjectionStage projects and filters
// only each hop's new samples, starting the output filter from a state
// carried over raw lanes. Its finalized channels must match what a per-hop
// zero-state re-projection of [stable - kProjectionCtxS, end) finalizes.

namespace {

struct CarryCase {
  double hop_s;
  double window_s;
};

/// Raw channels [b, e) of the ring.
core::AxisHistory ring_spans(const imu::SampleRing& ring, std::size_t b,
                             std::size_t e) {
  return {ring.ax(b, e), ring.ay(b, e), ring.az(b, e)};
}

/// Streams `trace` through a ProjectionStage in hops (a flush halfway, then
/// more hops, then a final flush) and returns the largest finalized-sample
/// gap to the zero-state re-projection, relative to the channels' peak.
/// `carried_bits` reports whether any sample differed at all.
double stage_gap_to_reprojection(const imu::Trace& trace, const CarryCase& c,
                                 bool& carried_bits) {
  const double fs = trace.fs();
  core::StepCounterConfig cfg;
  cfg.anterior_window_s = c.window_s;
  dsp::Workspace ws;
  dsp::Workspace ref_ws;
  core::ProjectionStage stage(cfg, fs, &ws);
  imu::SampleRing ring;

  const auto samples = [&](double s) {
    return static_cast<std::size_t>(s * fs);
  };
  const std::size_t ctx = samples(core::kProjectionCtxS);
  const std::size_t margin = samples(core::kProjectionMarginS);
  const std::size_t axis_window = samples(core::kProjectionAxisWindowS);
  const std::size_t hop = samples(c.hop_s);

  core::ProjectionSeam seam;
  core::ProjectedChannels ref;

  double peak = 0.0;
  double gap = 0.0;
  carried_bits = false;
  const auto run_hop = [&](bool flush) {
    const std::size_t end = ring.end();
    const std::size_t stable = stage.frontier();
    const std::size_t target =
        flush ? end : (end > margin ? end - margin : 0);
    std::size_t begin = stable > ctx ? stable - ctx : 0;
    begin = std::max(begin, ring.base());
    const bool projects = target > stable && end - begin >= 16;
    if (projects) {
      std::size_t axis_begin = end > axis_window ? end - axis_window : 0;
      axis_begin = std::max(axis_begin, ring.base());
      const bool pin = c.window_s <= 0.0 && axis_begin < begin;
      const auto raw = ring_spans(ring, begin, end);
      core::project_channels_into(
          raw.ax, raw.ay, raw.az, fs, cfg.lowpass_hz, c.window_s, ref_ws,
          &seam, pin ? ring_spans(ring, axis_begin, end) : core::AxisHistory{},
          ref);
    }
    stage.advance(ring, flush);
    if (!projects) return;
    EXPECT_EQ(stage.frontier(), target);
    for (std::size_t i = stable; i < target; ++i) {
      const double rv = ref.vertical[i - begin];
      const double ra = ref.anterior[i - begin];
      peak = std::max({peak, std::abs(rv), std::abs(ra)});
      const double dv = std::abs(stage.vertical()[i] - rv);
      const double da = std::abs(stage.anterior()[i] - ra);
      gap = std::max({gap, dv, da});
      carried_bits = carried_bits || dv != 0.0 || da != 0.0;
    }
    ring.trim_to(std::min(stage.min_required(), ring.end()));
  };

  const std::size_t half = trace.size() / 2;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ring.push(trace[i], 0);
    if ((i + 1) % hop == 0) run_hop(false);
    if (i == half) run_hop(true);  // a mid-stream drain, then more pushes
  }
  run_hop(true);
  EXPECT_GT(peak, 0.0);
  return gap / peak;
}

}  // namespace

TEST(ProjectionCarry, FinalizedChannelsMatchPerHopReprojection) {
  const auto r = turning_walk(811);
  for (const double hop_s : {0.5, 1.0, 2.0}) {
    for (const double window_s : {0.0, 10.0}) {
      const CarryCase c{hop_s, window_s};
      SCOPED_TRACE(::testing::Message() << "hop " << hop_s << " window "
                                        << window_s);
      bool carried_bits = false;
      const double rel = stage_gap_to_reprojection(r.trace, c, carried_bits);
      EXPECT_LT(rel, 1e-9);
      // Rounding differs somewhere: the hops really filtered from the
      // carried state rather than re-projecting their context.
      EXPECT_TRUE(carried_bits);
    }
  }
}
