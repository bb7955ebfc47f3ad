// Float32 streaming fast path vs. the batch-double oracle.
//
// StreamingConfig::precision == kFloat32 swaps the per-hop projection
// frontend onto the f32 SIMD kernels (core::Precision); everything
// downstream of projection stays double. The accuracy contract is that the
// f32 stream's events track the *batch double* pipeline within the same
// envelope the double incremental stream already meets, plus float
// rounding in the projections and zero-phase filters — which moves event
// *times* by at most a sample or two and strides by well under a percent.
// Tolerances below encode that envelope:
//   - event count within 8% + 2 of the oracle (the double stream's gate);
//   - >= 90% of events within 60 ms of an oracle event (same gate);
//   - total distance within 10% + 1 m of the oracle (same gate);
//   - f32 vs. double *streams* agree to within 2 events and 2% + 0.5 m of
//     distance — the pure precision delta, tighter than the seam envelope.
// The sweep reuses the scenario set of test_streaming_equivalence.cpp:
// walking, stepping, mixed gait, interference (expect quiet) and a faulted
// walking trace with dropouts and clipping through the quality layer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/ptrack.hpp"
#include "core/streaming.hpp"
#include "imu/faults.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

struct NamedTrace {
  std::string name;
  imu::Trace trace;
  bool expect_quiet = false;  ///< interference: the oracle emits ~nothing
};

std::vector<NamedTrace> scenarios() {
  synth::UserProfile user;
  const auto make = [&](const synth::Scenario& sc, std::uint64_t seed) {
    Rng rng(seed);
    return synth::synthesize(sc, user, synth::SynthOptions{}, rng).trace;
  };
  std::vector<NamedTrace> out;
  out.push_back({"walking", make(synth::Scenario::pure_walking(45.0), 701)});
  out.push_back({"stepping", make(synth::Scenario::pure_stepping(45.0), 702)});
  out.push_back({"mixed", make(synth::Scenario::mixed_gait(60.0), 703)});
  out.push_back({"interference",
                 make(synth::Scenario::interference(synth::ActivityKind::Gaming,
                                                    45.0,
                                                    synth::Posture::Standing),
                      704),
                 /*expect_quiet=*/true});
  {
    imu::Trace faulty = make(synth::Scenario::pure_walking(45.0), 705);
    Rng rng(706);
    faulty = imu::inject_dropouts(faulty, 4.0, 10, 60, rng);
    faulty = imu::clip_acceleration(faulty, 25.0);
    out.push_back({"faulted", std::move(faulty)});
  }
  return out;
}

core::StreamingConfig base_config(core::Precision precision) {
  synth::UserProfile user;
  core::StreamingConfig cfg;
  cfg.pipeline.stride.profile = {user.arm_length, user.leg_length, 2.0};
  cfg.precision = precision;
  return cfg;
}

std::vector<core::StepEvent> run_stream(const imu::Trace& trace,
                                        const core::StreamingConfig& cfg) {
  core::StreamingTracker stream(trace.fs(), cfg);
  std::vector<core::StepEvent> events;
  std::size_t i = 0, chunk = 137;
  while (i < trace.size()) {
    const std::size_t n = std::min(chunk, trace.size() - i);
    for (std::size_t j = 0; j < n; ++j) stream.push(trace[i + j]);
    i += n;
    chunk = chunk == 137 ? 411 : 137;
    for (const auto& e : stream.poll()) events.push_back(e);
  }
  for (const auto& e : stream.finish()) events.push_back(e);
  return events;
}

double total_distance(const std::vector<core::StepEvent>& events) {
  double d = 0.0;
  for (const auto& e : events) d += e.stride;
  return d;
}

}  // namespace

class Float32Oracle : public ::testing::TestWithParam<double> {};

TEST_P(Float32Oracle, TracksBatchDoubleAcrossScenarios) {
  const double hop_s = GetParam();
  for (const NamedTrace& s : scenarios()) {
    SCOPED_TRACE(s.name);
    core::StreamingConfig cfg = base_config(core::Precision::kFloat32);
    cfg.hop_s = hop_s;

    core::PTrack batch(cfg.pipeline);
    const core::TrackResult oracle = batch.process(s.trace);
    const auto events = run_stream(s.trace, cfg);

    // Chronological, never retracted, never duplicated.
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_GT(events[i].t, events[i - 1].t);
    }
    const double b = static_cast<double>(oracle.events.size());
    EXPECT_NEAR(static_cast<double>(events.size()), b, 0.08 * b + 2.0);
    if (s.expect_quiet) {
      EXPECT_LE(events.size(), oracle.events.size() + 2);
      continue;
    }
    std::size_t matched = 0;
    for (const core::StepEvent& e : events) {
      for (const core::StepEvent& o : oracle.events) {
        if (std::abs(o.t - e.t) <= 0.06) {
          ++matched;
          break;
        }
      }
    }
    EXPECT_GE(static_cast<double>(matched),
              0.9 * static_cast<double>(events.size()));
    EXPECT_NEAR(total_distance(events), total_distance(oracle.events),
                0.10 * total_distance(oracle.events) + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(HopSweep, Float32Oracle,
                         ::testing::Values(1.0, 2.0),
                         [](const auto& pinfo) {
                           return "hop_" +
                                  std::to_string(static_cast<int>(
                                      pinfo.param * 10.0)) +
                                  "ds";
                         });

TEST(Float32Stream, StaysCloseToDoubleStream) {
  // The pure precision delta, isolated: identical hops, identical seams,
  // only the projection arithmetic differs. Much tighter than the
  // batch-oracle envelope.
  for (const NamedTrace& s : scenarios()) {
    SCOPED_TRACE(s.name);
    const auto f32 =
        run_stream(s.trace, base_config(core::Precision::kFloat32));
    const auto f64 =
        run_stream(s.trace, base_config(core::Precision::kDouble));
    EXPECT_NEAR(static_cast<double>(f32.size()),
                static_cast<double>(f64.size()), 2.0);
    EXPECT_NEAR(total_distance(f32), total_distance(f64),
                0.02 * std::abs(total_distance(f64)) + 0.5);
  }
}

TEST(Float32Stream, DeterministicAcrossRuns) {
  // Same stream twice -> bit-identical events (the f32 path shares the
  // double pipeline's no-hidden-state property).
  synth::UserProfile user;
  Rng rng(710);
  const auto r = synth::synthesize(synth::Scenario::pure_walking(40.0), user,
                                   synth::SynthOptions{}, rng);
  const core::StreamingConfig cfg = base_config(core::Precision::kFloat32);
  const auto a = run_stream(r.trace, cfg);
  const auto b = run_stream(r.trace, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t);
    EXPECT_EQ(a[i].stride, b[i].stride);
  }
}

TEST(Float32Stream, RejectsUnsupportedConfigurations) {
  // No f32 attitude-filter path (double-only).
  core::StreamingConfig cfg = base_config(core::Precision::kFloat32);
  cfg.pipeline.counter.use_attitude_filter = true;
  EXPECT_THROW(core::StreamingTracker(100.0, cfg), InvalidArgument);
}
