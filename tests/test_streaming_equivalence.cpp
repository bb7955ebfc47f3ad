// Batch-oracle equivalence sweep: the incremental stage graph must
// reproduce the batch pipeline's events over the same samples, field for
// field, at any hop and in any chunking, across synth scenarios —
// including interference (no events either way) and injected sensor
// faults. Batch results are the oracle (core/stages.hpp contract): every
// stage computes on a grid anchored at sample 0, so where a hop ends never
// enters the arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/frontend.hpp"
#include "core/ptrack.hpp"
#include "core/streaming.hpp"
#include "imu/faults.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

struct NamedTrace {
  std::string name;
  imu::Trace trace;
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
                      704)});
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

/// Every field of every event equal, in order.
void expect_same_events(const std::vector<core::StepEvent>& got,
                        const std::vector<core::StepEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].t, want[i].t) << "event " << i;
    EXPECT_EQ(got[i].stride, want[i].stride) << "event " << i;
    EXPECT_EQ(got[i].quality, want[i].quality) << "event " << i;
    EXPECT_EQ(got[i].degraded, want[i].degraded) << "event " << i;
    EXPECT_EQ(got[i].type, want[i].type) << "event " << i;
  }
}

}  // namespace

class IncrementalEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(IncrementalEquivalence, TracksBatchOracleAcrossScenarios) {
  const double hop_s = GetParam();
  std::size_t events = 0;
  for (const NamedTrace& s : scenarios()) {
    SCOPED_TRACE(s.name);
    core::StreamingConfig cfg = base_config();
    cfg.hop_s = hop_s;
    core::PTrack batch(cfg.pipeline);
    const core::TrackResult oracle = batch.process(s.trace);
    expect_same_events(run_stream(s.trace, cfg), oracle.events);
    events += oracle.events.size();
  }
  EXPECT_GT(events, 200u);
}

// A trace that ends mid-block: its flush projects the final partial block
// with the last grid fit's axes, a rule no whole-second trace reaches.
TEST_P(IncrementalEquivalence, RaggedFaultedTraceTracksBatchOracle) {
  synth::UserProfile user;
  Rng rng(707);
  imu::Trace trace = synth::synthesize(synth::Scenario::pure_walking(45.0),
                                       user, synth::SynthOptions{}, rng)
                         .trace;
  Rng fault_rng(708);
  trace = imu::inject_dropouts(trace, 4.0, 10, 60, fault_rng);
  trace = imu::clip_acceleration(trace, 25.0);
  // 40.37 s: 37 samples into the trace's last grid block.
  trace = trace.slice(0, static_cast<std::size_t>(std::lround(40.37 *
                                                              trace.fs())));
  ASSERT_NE(trace.size() % core::grid_block(trace.fs()), 0u);
  core::StreamingConfig cfg = base_config();
  cfg.hop_s = GetParam();
  core::PTrack batch(cfg.pipeline);
  const core::TrackResult oracle = batch.process(trace);
  expect_same_events(run_stream(trace, cfg), oracle.events);
  EXPECT_GT(oracle.events.size(), 40u);
}

// Streams that end inside the warm-up, before the 20 s axis window is
// full: at the first fit (4 s), mid-block, mid-ladder and one sample short
// of the full window, clean and with sensor faults. Their grid fits read
// the stored warm-up sums, and a flush projects the final partial block on
// the last fit's axes.
TEST_P(IncrementalEquivalence, StreamEndingInWarmUpTracksBatchOracle) {
  synth::UserProfile user;
  Rng rng(709);
  const imu::Trace walk =
      synth::synthesize(synth::Scenario::pure_walking(20.0), user,
                        synth::SynthOptions{}, rng)
          .trace;
  Rng fault_rng(710);
  const imu::Trace faulty = imu::clip_acceleration(
      imu::inject_dropouts(walk, 6.0, 10, 60, fault_rng), 25.0);
  core::StreamingConfig cfg = base_config();
  cfg.hop_s = GetParam();
  const core::PTrack batch(cfg.pipeline);
  std::size_t events = 0;
  for (const imu::Trace* source : {&walk, &faulty}) {
    for (const double seconds : {4.0, 7.37, 12.5, 19.99}) {
      SCOPED_TRACE(::testing::Message()
                   << (source == &walk ? "clean " : "faulted ") << seconds
                   << " s");
      const imu::Trace trace = source->slice(
          0, static_cast<std::size_t>(std::lround(seconds * source->fs())));
      const core::TrackResult oracle = batch.process(trace);
      expect_same_events(run_stream(trace, cfg), oracle.events);
      events += oracle.events.size();
    }
  }
  EXPECT_GT(events, 60u);
}

INSTANTIATE_TEST_SUITE_P(HopSweep, IncrementalEquivalence,
                         ::testing::Values(0.1, 0.25, 0.3, 0.5, 1.0, 2.0,
                                           4.0),
                         [](const auto& pinfo) {
                           const auto ms = static_cast<int>(
                               std::lround(pinfo.param * 1000.0));
                           return ms % 100 == 0
                                      ? "hop_" + std::to_string(ms / 100) +
                                            "ds"
                                      : "hop_" + std::to_string(ms) + "ms";
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
    expect_same_events(stream.finish(), batch.events);
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

  expect_same_events(run_stream(r.trace, cfg), a);
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
