// Batch-oracle equivalence sweep: the incremental stage graph must
// reproduce the batch pipeline's events over the same samples, across hop
// settings and across synth scenarios — including interference (no events
// either way) and injected sensor faults. Batch results are the oracle
// (core/stages.hpp contract). Across hops, divergence is bounded to the
// documented seam effects, so the sweep checks count, chronology,
// per-event time alignment and distance; a stream drained in one hop must
// match batch bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

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

core::StreamingConfig base_config() {
  synth::UserProfile user;
  core::StreamingConfig cfg;
  cfg.pipeline.stride.profile = {user.arm_length, user.leg_length, 2.0};
  return cfg;
}

std::vector<core::StepEvent> run_stream(const imu::Trace& trace,
                                        const core::StreamingConfig& cfg) {
  core::StreamingTracker stream(trace.fs(), cfg);
  std::vector<core::StepEvent> events;
  // Push in uneven chunks and poll between them: equivalence must not
  // depend on how the stream is sliced.
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

void expect_equivalent(const NamedTrace& s,
                       const std::vector<core::StepEvent>& batch,
                       const std::vector<core::StepEvent>& stream) {
  SCOPED_TRACE(s.name);
  // Chronological, never retracted, never duplicated.
  for (std::size_t i = 1; i < stream.size(); ++i) {
    EXPECT_GT(stream[i].t, stream[i - 1].t);
  }
  const double b = static_cast<double>(batch.size());
  EXPECT_NEAR(static_cast<double>(stream.size()), b, 0.08 * b + 2.0);
  if (s.expect_quiet) {
    EXPECT_LE(stream.size(), batch.size() + 2);
    return;
  }
  // Events align with the oracle's event times: the stages are the same
  // code over the same samples, so only hop-seam effects (per-region
  // gravity estimate, filter margins) shift the odd peak.
  std::size_t matched = 0;
  for (const core::StepEvent& e : stream) {
    for (const core::StepEvent& o : batch) {
      if (std::abs(o.t - e.t) <= 0.06) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_GE(static_cast<double>(matched),
            0.9 * static_cast<double>(stream.size()));
  double dist_b = 0.0, dist_s = 0.0;
  for (const auto& e : batch) dist_b += e.stride;
  for (const auto& e : stream) dist_s += e.stride;
  EXPECT_NEAR(dist_s, dist_b, 0.10 * dist_b + 1.0);
}

}  // namespace

class IncrementalEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(IncrementalEquivalence, TracksBatchOracleAcrossScenarios) {
  const double hop_s = GetParam();
  for (const NamedTrace& s : scenarios()) {
    core::StreamingConfig cfg = base_config();
    cfg.hop_s = hop_s;
    core::PTrack batch(cfg.pipeline);
    const core::TrackResult oracle = batch.process(s.trace);
    const auto events = run_stream(s.trace, cfg);
    expect_equivalent(s, oracle.events, events);
  }
}

INSTANTIATE_TEST_SUITE_P(HopSweep, IncrementalEquivalence,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0),
                         [](const auto& pinfo) {
                           return "hop_" +
                                  std::to_string(static_cast<int>(
                                      pinfo.param * 10.0)) +
                                  "ds";
                         });

// ---------------------------------------------------------------------------
// Drained stream == batch, bit for bit.

TEST(StreamingEquivalence, DrainedStreamIsBatchBitForBit) {
  // A stream whose hop is longer than the trace runs one flush hop at
  // finish(): the same quality engine and the same single pipeline advance
  // as PTrack::process, so every event field matches exactly — on faulted
  // input too.
  synth::UserProfile user;
  const auto make = [&](double seconds, std::uint64_t seed) {
    Rng rng(seed);
    return synth::synthesize(synth::Scenario::pure_walking(seconds), user,
                             synth::SynthOptions{}, rng)
        .trace;
  };
  std::vector<NamedTrace> traces;
  for (NamedTrace& s : scenarios()) {
    if (s.name == "faulted") traces.push_back(std::move(s));
  }
  {
    Rng rng(720);
    traces.push_back({"spiked", imu::inject_spikes(make(40.0, 721), 12.0, 6.0,
                                                   rng,
                                                   imu::FaultChannels::Both)});
  }
  {
    imu::Trace t = make(40.0, 722);
    for (std::size_t i = 250; i + 1 < t.size(); i += 397) {
      t.samples()[i].accel.y = std::nan("");
      t.samples()[i + 1].gyro.x = std::numeric_limits<double>::infinity();
    }
    traces.push_back({"nonfinite", std::move(t)});
  }
  ASSERT_EQ(traces.size(), 3u);

  for (const NamedTrace& s : traces) {
    SCOPED_TRACE(s.name);
    core::StreamingConfig cfg = base_config();
    cfg.hop_s = s.trace.duration() + 1.0;
    const core::TrackResult batch = core::PTrack(cfg.pipeline).process(s.trace);
    ASSERT_TRUE(batch.quality.degraded());

    core::StreamingTracker stream(s.trace.fs(), cfg);
    stream.push(s.trace);
    const auto events = stream.finish();
    ASSERT_EQ(events.size(), batch.events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].t, batch.events[i].t) << "event " << i;
      EXPECT_EQ(events[i].stride, batch.events[i].stride) << "event " << i;
      EXPECT_EQ(events[i].quality, batch.events[i].quality) << "event " << i;
      EXPECT_EQ(events[i].degraded, batch.events[i].degraded) << "event " << i;
      EXPECT_EQ(events[i].type, batch.events[i].type) << "event " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism and satellite contracts.

TEST(StreamingEquivalence, SliceInvariant) {
  // The same stream pushed whole vs. in chunks yields bit-identical events
  // (hop boundaries depend only on the sample count).
  synth::UserProfile user;
  Rng rng(710);
  const auto r = synth::synthesize(synth::Scenario::pure_walking(40.0), user,
                                   synth::SynthOptions{}, rng);
  const core::StreamingConfig cfg = base_config();

  core::StreamingTracker whole(r.trace.fs(), cfg);
  whole.push(r.trace);
  auto a = whole.poll();
  for (const auto& e : whole.finish()) a.push_back(e);

  const auto b = run_stream(r.trace, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].t, b[i].t);
    EXPECT_DOUBLE_EQ(a[i].stride, b[i].stride);
    EXPECT_EQ(a[i].type, b[i].type);
  }
}

TEST(StreamingEquivalence, MismatchedSampleRateThrows) {
  const core::StreamingConfig cfg = base_config();
  core::StreamingTracker stream(100.0, cfg);
  synth::UserProfile user;
  Rng rng(711);
  synth::SynthOptions opt;
  opt.device_fs = 50.0;
  const auto r = synth::synthesize(synth::Scenario::pure_walking(5.0), user,
                                   opt, rng);
  ASSERT_NE(r.trace.fs(), 100.0);
  EXPECT_THROW(stream.push(r.trace), InvalidArgument);
  // A matching-rate trace is accepted as before.
  Rng rng2(712);
  const auto ok = synth::synthesize(synth::Scenario::pure_walking(5.0), user,
                                    synth::SynthOptions{}, rng2);
  ASSERT_EQ(ok.trace.fs(), 100.0);
  EXPECT_NO_THROW(stream.push(ok.trace));
}

TEST(StreamingEquivalence, TinyStreamEmitsNothing) {
  // Documented floor: under 32 samples there is not even one projectable
  // region plus a cycle's worth of peaks.
  synth::UserProfile user;
  Rng rng(713);
  const auto r = synth::synthesize(synth::Scenario::pure_walking(2.0), user,
                                   synth::SynthOptions{}, rng);
  core::StreamingTracker stream(r.trace.fs(), base_config());
  for (std::size_t i = 0; i < 31; ++i) stream.push(r.trace[i]);
  const auto events = stream.finish();
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(stream.steps(), 0u);
}
