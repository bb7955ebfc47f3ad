// Tests for the projection frontend: the trailing axis window (turning
// routes), the grid low-pass, and the projection stage's hop invariance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/alloc_hooks.hpp"
#include "common/angles.hpp"
#include "common/error.hpp"
#include "common/vec3.hpp"
#include "core/frontend.hpp"
#include "core/ptrack.hpp"
#include "core/stages.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/projection.hpp"
#include "dsp/simd.hpp"
#include "dsp/workspace.hpp"
#include "imu/sample_ring.hpp"
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

core::ProjectedChannels project(const imu::Trace& trace, double window_s) {
  core::StepCounterConfig cfg;
  cfg.anterior_window_s = window_s;
  return core::project_trace(trace, cfg);
}

}  // namespace

TEST(Frontend, ProjectTraceBasicShapes) {
  Rng rng(801);
  synth::UserProfile user;
  const auto r = synth::synthesize(synth::Scenario::pure_walking(20.0), user,
                                   synth::SynthOptions{}, rng);
  const auto p = core::project_trace(r.trace);
  EXPECT_EQ(p.vertical.size(), r.trace.size());
  EXPECT_EQ(p.anterior.size(), r.trace.size());
  EXPECT_DOUBLE_EQ(p.fs, r.trace.fs());
}

// "Global" is an axis window as long as the trace: each block fits over
// everything before its end.
TEST(Frontend, WindowedAnteriorMatchesGlobalOnStraightWalk) {
  Rng rng(802);
  synth::UserProfile user;
  const auto r = synth::synthesize(synth::Scenario::pure_walking(30.0), user,
                                   synth::SynthOptions{}, rng);
  const auto global = project(r.trace, 30.0);
  const auto windowed = project(r.trace, 10.0);
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
  // After the turn, the trace-long window still holds the first heading,
  // which dilutes the anterior energy; the 10 s window recovers it.
  const auto global = project(r.trace, 60.0);
  const auto windowed = project(r.trace, 10.0);
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
  EXPECT_THROW(core::project_trace(r.trace.slice(0, 8)), InvalidArgument);
  core::StepCounterConfig cfg;
  cfg.lowpass_hz = 0.0;
  EXPECT_THROW(core::project_trace(r.trace, cfg), InvalidArgument);
  // The axis window spans at least one grid block.
  cfg = {};
  cfg.anterior_window_s = 0.5;
  EXPECT_THROW(core::project_trace(r.trace, cfg), InvalidArgument);
}

// A single flush of the grid low-pass over a whole signal is the batch
// zero-phase filter, bit for bit; shorter than the pad too.
TEST(GridLowpass, FlushIsFiltfilt) {
  Rng rng(807);
  for (const std::size_t n : {std::size_t{2}, std::size_t{40},
                              std::size_t{65}, std::size_t{700}}) {
    std::vector<double> v(n);
    std::vector<double> a(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = rng.normal(0.0, 1.0);
      a[i] = rng.normal(0.0, 3.0);
    }
    dsp::Workspace ws;
    core::GridLowpass lowpass(5.0, 100.0);
    lowpass.append(
        n,
        [&](std::span<double> vertical, std::span<double> anterior) {
          std::ranges::copy(v, vertical.begin());
          std::ranges::copy(a, anterior.begin());
        },
        ws);
    lowpass.flush(ws);
    ASSERT_EQ(lowpass.final_end(), n);

    std::vector<double> fv(n);
    std::vector<double> fa(n);
    const std::array<std::span<const double>, 2> ins{
        std::span<const double>(v), std::span<const double>(a)};
    const std::array<std::span<double>, 2> outs{std::span<double>(fv),
                                                std::span<double>(fa)};
    dsp::filtfilt_multi_into(core::output_lowpass(5.0, 100.0), ins,
                             core::kLowpassPad, ws, outs);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(lowpass.vertical()[i], fv[i]) << "n " << n << " i " << i;
      EXPECT_EQ(lowpass.anterior()[i], fa[i]) << "n " << n << " i " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Hop invariance: a ProjectionStage advanced at any hop, with its raw ring
// trimmed to what it still needs, finalizes exactly the channels its flush
// over the whole trace finalizes, and, once its first fit is in, holds no
// sample back longer than (kSettleBlocks + 1) grid blocks and needs less
// than one grid block of raw samples.

namespace {

/// Streams `trace` through a ProjectionStage in hops of `hop` samples, then
/// flushes; returns the finalized channels.
core::ProjectedChannels stream_projection(const imu::Trace& trace,
                                          const core::StepCounterConfig& cfg,
                                          std::size_t hop) {
  const double fs = trace.fs();
  const std::size_t block = core::grid_block(fs);
  const std::size_t lag = (core::kSettleBlocks + 1) * block;
  // The stream's first fit waits for kMinAxisWindowS of samples.
  const std::size_t first_fit =
      (static_cast<std::size_t>(core::kMinAxisWindowS * fs) + block - 1) /
      block * block;
  core::ProjectionStage stage(cfg, fs);
  imu::SampleRing ring;
  core::ProjectedChannels out;
  const auto collect = [&] {
    for (std::size_t i = out.vertical.size(); i < stage.frontier(); ++i) {
      out.vertical.push_back(stage.vertical()[i]);
      out.anterior.push_back(stage.anterior()[i]);
    }
    stage.trim_projected(stage.frontier());
    ring.trim_to(std::min(stage.min_required(), ring.end()));
  };
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ring.push(trace[i], 0);
    if ((i + 1) % hop != 0) continue;
    stage.advance(ring, false);
    if (ring.end() >= first_fit) {
      EXPECT_LE(ring.end(), stage.frontier() + lag) << "hop " << hop;
    }
    collect();
    if (ring.end() >= first_fit) {
      EXPECT_LT(ring.size(), block) << "hop " << hop << " at " << ring.end();
    }
  }
  stage.advance(ring, true);
  collect();
  return out;
}

}  // namespace

TEST(ProjectionStage, StreamedChannelsEqualFlush) {
  const auto r = turning_walk(811);
  for (const double window_s : {10.0, 20.0}) {
    core::StepCounterConfig cfg;
    cfg.anterior_window_s = window_s;
    const core::ProjectedChannels batch = core::project_trace(r.trace, cfg);
    ASSERT_EQ(batch.vertical.size(), r.trace.size());
    for (const std::size_t hop : {1u, 37u, 50u, 100u, 250u, 400u}) {
      SCOPED_TRACE(::testing::Message() << "window " << window_s << " hop "
                                        << hop);
      const core::ProjectedChannels streamed =
          stream_projection(r.trace, cfg, hop);
      EXPECT_EQ(streamed.vertical, batch.vertical);
      EXPECT_EQ(streamed.anterior, batch.anterior);
    }
  }
}

// ---------------------------------------------------------------------------
// Stored taper sums: the per-sample gravity terms of full and warm-up
// windows are taken once per block, when the block is first seen, instead
// of from the raw ring at every fit that reads them. The kernel, the spans
// and the accumulation order are those of a fit that reads raw samples,
// so the projected channels are the same bits.

namespace {

/// The projection with every grid fit reading the raw samples: blocks in
/// a window's tapers are weighed sample by sample (simd::weighted_sum3)
/// at fit time. Block moments, mean weights, the final partial block on the
/// last fit's axes and the low-pass schedule are ProjectionStage's.
/// Requires at least the stream's first fit of samples.
core::ProjectedChannels per_sample_projection(
    const imu::Trace& trace, const core::StepCounterConfig& cfg) {
  const double fs = trace.fs();
  const std::size_t total = trace.size();
  std::vector<double> x(total);
  std::vector<double> y(total);
  std::vector<double> z(total);
  for (std::size_t i = 0; i < total; ++i) {
    x[i] = trace[i].accel.x;
    y[i] = trace[i].accel.y;
    z[i] = trace[i].accel.z;
  }
  const std::span<const double> xs(x);
  const std::span<const double> ys(y);
  const std::span<const double> zs(z);
  const std::size_t block = core::grid_block(fs);
  const std::size_t window =
      static_cast<std::size_t>(cfg.anterior_window_s * fs) / block * block;
  const std::size_t taper = static_cast<std::size_t>(core::kTaperS * fs);
  const std::size_t first_fit = std::min(
      window,
      (static_cast<std::size_t>(core::kMinAxisWindowS * fs) + block - 1) /
          block * block);
  const std::size_t settle = core::kSettleBlocks * block;
  const Vec3 shift{x[0], y[0], z[0]};

  dsp::Workspace ws;
  core::GridLowpass lowpass(cfg.lowpass_hz, fs);
  Vec3 up{};
  Vec3 anterior{};
  std::size_t projected = 0;
  const auto project = [&](std::size_t e) {
    const std::size_t len = e - projected;
    lowpass.append(
        len,
        [&](std::span<double> v, std::span<double> a) {
          dsp::simd::axis_project(xs.subspan(projected, len),
                                  ys.subspan(projected, len),
                                  zs.subspan(projected, len), up, kGravity,
                                  v);
          dsp::simd::residual_project(xs.subspan(projected, len),
                                      ys.subspan(projected, len),
                                      zs.subspan(projected, len), up,
                                      anterior, a);
        },
        ws);
    projected = e;
  };
  for (std::size_t e = first_fit; e <= total; e += block) {
    const std::size_t begin = e > window ? e - window : 0;
    const std::size_t n = e - begin;
    const auto table =
        dsp::shared_gravity_weights(n, fs, dsp::kGravityCutoffHz);
    const std::span<const double> w = table->weights();
    const std::span<const double> cumulative = table->cumulative();
    dsp::simd::Moments3 moments{};
    Vec3 gravity{};
    for (std::size_t pb = begin; pb < e; pb += block) {
      const auto m = dsp::simd::moments3(xs.subspan(pb, block),
                                         ys.subspan(pb, block),
                                         zs.subspan(pb, block), shift);
      moments.sum += m.sum;
      moments.xx += m.xx;
      moments.xy += m.xy;
      moments.xz += m.xz;
      moments.yy += m.yy;
      moments.yz += m.yz;
      moments.zz += m.zz;
      const std::size_t jb = pb - begin;
      const std::size_t je = jb + block;
      if (jb >= taper && je + taper <= n) {
        gravity += (m.sum + shift * static_cast<double>(block)) *
                   ((cumulative[je] - cumulative[jb]) /
                    static_cast<double>(block));
      } else {
        gravity += dsp::simd::weighted_sum3(
            w.subspan(jb, block), xs.subspan(pb, block),
            ys.subspan(pb, block), zs.subspan(pb, block));
      }
    }
    up = gravity.normalized();
    const Vec3 previous = anterior;
    anterior = dsp::principal_horizontal_direction(moments, n, up);
    if (previous.norm2() > 0.0 && anterior.dot(previous) < 0.0) {
      anterior = -anterior;
    }
    project(e);
    lowpass.finalize(e > settle ? e - settle : 0, ws);
  }
  if (total > projected) project(total);
  lowpass.flush(ws);
  lowpass.run_passes(ws);

  core::ProjectedChannels out;
  out.fs = fs;
  const std::span<const double> fv = lowpass.vertical().span(0, total);
  const std::span<const double> fa = lowpass.anterior().span(0, total);
  out.vertical.assign(fv.begin(), fv.end());
  out.anterior.assign(fa.begin(), fa.end());
  return out;
}

}  // namespace

TEST(ProjectionStage, StoredTaperSumsMatchPerSampleFit) {
  const auto r = turning_walk(812);
  // Whole seconds, and a trace that ends 37 samples into its last block
  // (its flush projects that block on the last grid fit's axes).
  const imu::Trace ragged = r.trace.slice(0, r.trace.size() - 63);
  for (const double window_s : {10.0, 20.0}) {
    core::StepCounterConfig cfg;
    cfg.anterior_window_s = window_s;
    for (const imu::Trace* trace : {&r.trace, &ragged}) {
      const core::ProjectedChannels reference =
          per_sample_projection(*trace, cfg);
      ASSERT_EQ(reference.vertical.size(), trace->size());
      for (const std::size_t hop : {1u, 37u, 100u, 250u, 400u}) {
        SCOPED_TRACE(::testing::Message()
                     << "window " << window_s << " samples "
                     << trace->size() << " hop " << hop);
        const core::ProjectedChannels streamed =
            stream_projection(*trace, cfg, hop);
        EXPECT_EQ(streamed.vertical, reference.vertical);
        EXPECT_EQ(streamed.anterior, reference.anterior);
      }
    }
  }
}

// Warm-up: before the axis window is full, each grid fit runs over the
// stream from its start with that length's weight table. Over a stream's
// first 25 s (every warm-up fit, the first full window and a few after),
// the stored per-block sums give the channels of fits that read every
// raw sample from the stream's start, bit for bit, while the stage keeps
// less than one grid block of raw samples from its first fit on
// (stream_projection). At a 10 s window every warm-up block is tapered.
TEST(ProjectionStage, WarmUpSumsMatchPerSampleFit) {
  const auto r = turning_walk(813);
  const imu::Trace head =
      r.trace.slice(0, static_cast<std::size_t>(25.0 * r.trace.fs()));
  for (const double window_s : {10.0, 20.0}) {
    core::StepCounterConfig cfg;
    cfg.anterior_window_s = window_s;
    const core::ProjectedChannels reference =
        per_sample_projection(head, cfg);
    ASSERT_EQ(reference.vertical.size(), head.size());
    for (const std::size_t hop : {1u, 7u, 37u, 100u, 173u, 250u, 400u}) {
      SCOPED_TRACE(::testing::Message()
                   << "window " << window_s << " hop " << hop);
      const core::ProjectedChannels streamed =
          stream_projection(head, cfg, hop);
      EXPECT_EQ(streamed.vertical, reference.vertical);
      EXPECT_EQ(streamed.anterior, reference.anterior);
    }
  }
}

// The warm-up's tables and stored sums are released with the first full
// window's fit: over the first 25 s at 100 Hz and a 20 s window, the heap
// the stage itself holds falls below its warm-up peak by at least the 139
// sums it stored.
TEST(ProjectionStage, ReleasesWarmUpStateWithFirstFullWindow) {
  if (!alloc::hooks_enabled()) {
    GTEST_SKIP() << "allocation hooks compiled out";
  }
  const auto r = turning_walk(814);
  const double fs = r.trace.fs();
  ASSERT_DOUBLE_EQ(fs, 100.0);
  const std::size_t block = core::grid_block(fs);
  const core::StepCounterConfig cfg;
  ASSERT_DOUBLE_EQ(cfg.anterior_window_s, 20.0);
  const auto live = [] {
    return static_cast<std::int64_t>(alloc::live_bytes());
  };
  // The stage's own heap: what its advance and trim calls leave allocated.
  std::int64_t held = 0;
  std::int64_t warm_peak = 0;
  const auto run = [&] {
    core::ProjectionStage stage(cfg, fs);
    imu::SampleRing ring;
    held = 0;
    warm_peak = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(25.0 * fs); ++i) {
      ring.push(r.trace[i], 0);
      if ((i + 1) % block != 0) continue;
      const std::int64_t before = live();
      stage.advance(ring, false);
      stage.trim_projected(stage.frontier());
      held += live() - before;
      ring.trim_to(std::min(stage.min_required(), ring.end()));
      if (i + 1 < static_cast<std::size_t>(20.0 * fs)) {
        warm_peak = std::max(warm_peak, held);
      }
    }
  };
  // A first stage takes what every stage shares (gravity weight tables,
  // the thread's scratch), so the second one's figures are its own.
  run();
  run();
  EXPECT_LE(held + static_cast<std::int64_t>(139 * sizeof(Vec3)), warm_peak)
      << "held " << held << " B after 25 s, warm-up peak " << warm_peak
      << " B";
}
