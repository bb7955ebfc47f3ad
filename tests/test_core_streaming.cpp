// Tests for the streaming (online) tracker: bounded memory, monotone
// emission, batch consistency, and graceful degradation under injected
// sensor faults (quality flags must ride along on emitted events).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "common/alloc_hooks.hpp"
#include "common/error.hpp"
#include "core/streaming.hpp"
#include "imu/faults.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

synth::SynthResult make(const synth::Scenario& scenario, std::uint64_t seed) {
  Rng rng(seed);
  synth::UserProfile user;
  return synth::synthesize(scenario, user, synth::SynthOptions{}, rng);
}

core::StreamingConfig config_for_user() {
  synth::UserProfile user;
  core::StreamingConfig cfg;
  cfg.pipeline.stride.profile = {user.arm_length, user.leg_length, 2.0};
  return cfg;
}

}  // namespace

TEST(Streaming, MatchesBatchStepCountOnWalking) {
  const auto r = make(synth::Scenario::pure_walking(60.0), 501);

  core::PTrack batch(config_for_user().pipeline);
  const auto batch_result = batch.process(r.trace);

  core::StreamingTracker stream(r.trace.fs(), config_for_user());
  stream.push(r.trace);
  auto events = stream.poll();
  const auto tail = stream.finish();
  events.insert(events.end(), tail.begin(), tail.end());

  const double batch_steps = static_cast<double>(batch_result.steps);
  EXPECT_NEAR(static_cast<double>(events.size()), batch_steps,
              0.08 * batch_steps + 2.0);
}

TEST(Streaming, DrainMatchesBatchOracle) {
  const auto r = make(synth::Scenario::pure_walking(60.0), 509);

  // Reference stream: push everything, flush once through finish().
  core::StreamingTracker ref(r.trace.fs(), config_for_user());
  ref.push(r.trace);
  const auto want = ref.finish();
  ASSERT_GT(want.size(), 45u);

  // drain_into with interleaved polling — the shape of ptrack_serve's
  // SIGTERM drain path — must reproduce the exact same event stream.
  core::StreamingTracker stream(r.trace.fs(), config_for_user());
  std::vector<core::StepEvent> got;
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    stream.push(r.trace[i]);
    if (i % 137 == 136) stream.poll_into(got);
  }
  stream.drain_into(got);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].t, want[i].t) << "event " << i;
    EXPECT_EQ(got[i].stride, want[i].stride) << "event " << i;
    EXPECT_EQ(got[i].quality, want[i].quality) << "event " << i;
    EXPECT_EQ(got[i].type, want[i].type) << "event " << i;
    EXPECT_EQ(got[i].degraded, want[i].degraded) << "event " << i;
  }

  // And the drained stream stays tied to the batch pipeline's step count.
  core::PTrack batch(config_for_user().pipeline);
  const auto batch_result = batch.process(r.trace);
  const double batch_steps = static_cast<double>(batch_result.steps);
  EXPECT_NEAR(static_cast<double>(got.size()), batch_steps,
              0.08 * batch_steps + 2.0);
}

TEST(Streaming, EventsEmittedIncrementally) {
  const auto r = make(synth::Scenario::pure_walking(30.0), 502);
  core::StreamingTracker stream(r.trace.fs(), config_for_user());

  std::size_t polls_with_events = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    stream.push(r.trace[i]);
    if (i % 500 == 499) {  // poll every 5 s
      const auto events = stream.poll();
      polls_with_events += !events.empty();
      total += events.size();
    }
  }
  total += stream.finish().size();
  EXPECT_GE(polls_with_events, 3u);  // events arrive while walking continues
  EXPECT_GT(total, 45u);  // ~55 true steps in 30 s
}

TEST(Streaming, EventsAreChronologicalAndUnique) {
  const auto r = make(synth::Scenario::mixed_gait(60.0), 503);
  core::StreamingTracker stream(r.trace.fs(), config_for_user());

  std::vector<core::StepEvent> all;
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    stream.push(r.trace[i]);
    if (i % 200 == 0) {
      for (const auto& e : stream.poll()) all.push_back(e);
    }
  }
  for (const auto& e : stream.finish()) all.push_back(e);

  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_GT(all[i].t, all[i - 1].t - 1e-9);  // ordered, no duplicates
  }
}

TEST(Streaming, RejectsInterference) {
  const auto r = make(
      synth::Scenario::interference(synth::ActivityKind::Spoofer, 60.0,
                                    synth::Posture::Standing),
      504);
  core::StreamingTracker stream(r.trace.fs(), config_for_user());
  stream.push(r.trace);
  stream.finish();
  EXPECT_LE(stream.steps(), 2u);
}

TEST(Streaming, DistanceAccumulates) {
  const auto r = make(synth::Scenario::pure_walking(60.0), 505);
  core::StreamingTracker stream(r.trace.fs(), config_for_user());
  stream.push(r.trace);
  stream.poll();
  stream.finish();
  const double truth = r.truth.total_distance();
  EXPECT_NEAR(stream.distance(), truth, 0.2 * truth);
}

TEST(Streaming, StatelessBetweenQuietPeriods) {
  // Walk, long idle, walk: the second walk is still counted.
  synth::Scenario scenario;
  scenario.walk(20.0)
      .activity(synth::ActivityKind::Idle, 30.0)
      .walk(20.0);
  const auto r = make(scenario, 506);
  core::StreamingTracker stream(r.trace.fs(), config_for_user());
  stream.push(r.trace);
  stream.poll();
  stream.finish();
  const double truth = static_cast<double>(r.truth.step_count());
  EXPECT_NEAR(static_cast<double>(stream.steps()), truth, 0.15 * truth + 2.0);
}

TEST(Streaming, InvalidConfigThrows) {
  core::StreamingConfig cfg;
  cfg.hop_s = 0.0;
  EXPECT_THROW(core::StreamingTracker(100.0, cfg), InvalidArgument);
  EXPECT_THROW(core::StreamingTracker(0.0, {}), InvalidArgument);
}

TEST(Streaming, FaultsAcrossChunkSeamsDegradeGracefully) {
  // A dropout run straddling a hop boundary (hop_s = 2 s, so the 10 s mark
  // is a seam) plus a saturated stretch later on: the tracker must keep
  // emitting monotone, never-retracted events, flag the affected ones, and
  // agree with the batch pipeline on the overall count.
  const auto r = make(synth::Scenario::pure_walking(60.0), 508);
  imu::Trace faulty = r.trace;
  const double fs = faulty.fs();
  auto& samples = faulty.samples();
  const auto at = [&](double t) {
    return std::min(samples.size() - 1,
                    static_cast<std::size_t>(t * fs));
  };
  // Sample-and-hold dropout from 9.9 s to 10.4 s (spans the 10 s seam).
  for (std::size_t i = at(9.9); i < at(10.4); ++i) {
    samples[i].accel = samples[at(9.9) - 1].accel;
    samples[i].gyro = samples[at(9.9) - 1].gyro;
  }
  // Saturated plateau: one accel component pinned at a 2.5 g rail for 1 s.
  for (std::size_t i = at(30.0); i < at(31.0); ++i) {
    samples[i].accel.z = 25.0;
  }

  core::PTrack batch(config_for_user().pipeline);
  const auto batch_result = batch.process(faulty);
  EXPECT_TRUE(batch_result.quality.degraded());
  const auto flagged = [](const std::vector<core::StepEvent>& events) {
    return std::count_if(events.begin(), events.end(),
                         [](const core::StepEvent& e) {
                           return e.quality < 1.0;
                         });
  };
  EXPECT_GE(flagged(batch_result.events), 1);

  core::StreamingTracker stream(fs, config_for_user());
  std::vector<core::StepEvent> all;
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    stream.push(faulty[i]);
    if (i % 300 == 0) {
      for (const auto& e : stream.poll()) all.push_back(e);
    }
  }
  for (const auto& e : stream.finish()) all.push_back(e);

  // No retraction or duplication: strictly increasing timestamps.
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_GT(all[i].t, all[i - 1].t - 1e-9);
  }
  // Count agrees with batch on the same faulty trace.
  const double batch_steps = static_cast<double>(batch_result.steps);
  EXPECT_NEAR(static_cast<double>(all.size()), batch_steps,
              0.1 * batch_steps + 2.0);
  // The streaming events around the faults carry the degradation too, and
  // the tracker's degraded counter is consistent with what it emitted.
  EXPECT_GE(flagged(all), 1);
  const auto degraded_emitted = static_cast<std::size_t>(
      std::count_if(all.begin(), all.end(),
                    [](const core::StepEvent& e) { return e.degraded; }));
  EXPECT_EQ(stream.degraded_steps(), degraded_emitted);
  for (const auto& e : all) {
    EXPECT_GE(e.quality, 0.0);
    EXPECT_LE(e.quality, 1.0);
  }
}

TEST(Streaming, FinishThenContinue) {
  const auto r = make(synth::Scenario::pure_walking(40.0), 507);
  core::StreamingTracker stream(r.trace.fs(), config_for_user());
  const std::size_t half = r.trace.size() / 2;
  stream.push(r.trace.slice(0, half));
  stream.finish();
  const std::size_t steps_at_half = stream.steps();
  stream.push(r.trace.slice(half, r.trace.size()));
  stream.finish();
  EXPECT_GT(stream.steps(), steps_at_half + 20);
}

// Peak per-tracker heap over a stream's life. From its first fit a
// tracker keeps raw samples only for segmentation and the assembler's
// quality reads (a few seconds): warm-up and full-window fits read each
// grid block's taper-weighted gravity sums, taken with the block, and the
// filter scratch is the thread's. The peak of its live heap, sampled after
// every push of an 80 s walk at 100 Hz, warm-up included, is bounded.
TEST(Streaming, PeakLiveHeapIsBounded) {
  const auto r = make(synth::Scenario::pure_walking(80.0), 512);
  ASSERT_DOUBLE_EQ(r.trace.fs(), 100.0);
  std::vector<core::StepEvent> sink;
  sink.reserve(4096);
  // Bounds (KB) ~10 % above the measured peaks: 79.5 at 1 s hops and
  // 92.3 at 2 s (a private 14.5 KB workspace, or raw samples retained
  // through the warm-up, breaks them).
  struct Case {
    double hop_s;
    std::int64_t bound_kb;
  };
  for (const Case c : {Case{1.0, 88}, Case{2.0, 102}}) {
    SCOPED_TRACE(::testing::Message() << "hop " << c.hop_s << " s");
    core::StreamingConfig cfg = config_for_user();
    cfg.hop_s = c.hop_s;
    std::int64_t peak = 0;
    const auto run = [&](std::int64_t before) {
      auto stream = std::make_unique<core::StreamingTracker>(r.trace.fs(),
                                                             cfg);
      for (std::size_t i = 0; i < r.trace.size(); ++i) {
        stream->push(r.trace[i]);
        stream->poll_into(sink);
        sink.clear();
        peak = std::max(
            peak, static_cast<std::int64_t>(alloc::live_bytes()) - before);
      }
      return stream;
    };
    // A first tracker takes what every tracker shares (gravity weight
    // tables, the thread's scratch, telemetry handles), so the second
    // one's peak is its own heap.
    run(0).reset();
    peak = 0;
    const auto stream = run(static_cast<std::int64_t>(alloc::live_bytes()));
    EXPECT_LE(peak, c.bound_kb * 1024)
        << "tracker peak live heap " << peak / 1024 << " KB";
    EXPECT_GT(stream->steps(), 80u);
  }
}

// Trackers on one thread share its scratch: interleaved sample by sample,
// at different hops and axis windows (so their scratch requests differ),
// each still emits exactly the batch events of its own samples.
TEST(Streaming, InterleavedTrackersOnOneThreadMatchBatch) {
  const auto walk = make(synth::Scenario::pure_walking(45.0), 513);
  const auto mixed = make(synth::Scenario::mixed_gait(40.0), 514);
  core::StreamingConfig a_cfg = config_for_user();
  a_cfg.hop_s = 1.0;
  core::StreamingConfig b_cfg = config_for_user();
  b_cfg.hop_s = 0.3;
  b_cfg.pipeline.counter.anterior_window_s = 10.0;
  core::StreamingTracker a(walk.trace.fs(), a_cfg);
  core::StreamingTracker b(mixed.trace.fs(), b_cfg);
  std::vector<core::StepEvent> got_a;
  std::vector<core::StepEvent> got_b;
  for (std::size_t i = 0; i < walk.trace.size(); ++i) {
    a.push(walk.trace[i]);
    if (i < mixed.trace.size()) b.push(mixed.trace[i]);
    a.poll_into(got_a);
    b.poll_into(got_b);
  }
  a.drain_into(got_a);
  b.drain_into(got_b);
  const auto expect_batch = [](const std::vector<core::StepEvent>& got,
                               const imu::Trace& trace,
                               const core::StreamingConfig& cfg) {
    const core::TrackResult want = core::PTrack(cfg.pipeline).process(trace);
    ASSERT_GT(want.events.size(), 30u);
    ASSERT_EQ(got.size(), want.events.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].t, want.events[i].t) << "event " << i;
      EXPECT_EQ(got[i].stride, want.events[i].stride) << "event " << i;
      EXPECT_EQ(got[i].quality, want.events[i].quality) << "event " << i;
      EXPECT_EQ(got[i].type, want.events[i].type) << "event " << i;
    }
  };
  expect_batch(got_a, walk.trace, a_cfg);
  expect_batch(got_b, mixed.trace, b_cfg);
}

TEST(Streaming, StatsSnapshotTracksLifetime) {
  const auto r = make(synth::Scenario::pure_walking(40.0), 508);
  core::StreamingTracker stream(r.trace.fs(), config_for_user());

  const auto before = stream.stats();
  EXPECT_EQ(before.samples_pushed, 0u);
  EXPECT_EQ(before.windows_processed, 0u);
  EXPECT_EQ(before.events_emitted, 0u);
  EXPECT_DOUBLE_EQ(before.degraded_fraction(), 0.0);

  stream.push(r.trace);
  std::size_t polled = stream.poll().size();
  polled += stream.finish().size();

  const auto after = stream.stats();
  EXPECT_EQ(after.samples_pushed, r.trace.size());
  EXPECT_GT(after.windows_processed, 0u);
  EXPECT_EQ(after.events_emitted, polled);
  EXPECT_EQ(after.events_emitted, stream.steps());
  EXPECT_EQ(after.degraded_events, stream.degraded_steps());
  EXPECT_LE(after.degraded_events, after.events_emitted);
  EXPECT_DOUBLE_EQ(after.distance_m, stream.distance());
  EXPECT_GE(after.degraded_fraction(), 0.0);
  EXPECT_LE(after.degraded_fraction(), 1.0);
}

// Every same-fs stream with the same axis window fits its projection axes
// with one process-wide, read-only gravity weight table, created by
// whichever stream needs it first. Streams driven concurrently from
// several threads, and sample-interleaved on each thread so that they
// share its per-thread scratch, must each emit exactly the events they
// emit when run alone. The interleaved streams differ in axis window (20
// or 10 s, two tables) and hop length, so scratch state leaking from one
// stream into the next changes some stream's events. Under TSan this is
// also the race check on the tables' publication.
TEST(Streaming, SharedGravityTableAcrossThreads) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kStreamsPerThread = 3;
  constexpr std::size_t kChunk = 37;
  constexpr std::size_t kStreams = kThreads * kStreamsPerThread;
  std::vector<imu::Trace> traces;
  traces.reserve(kStreams);
  for (std::size_t i = 0; i < kStreams; ++i) {
    traces.push_back(make(synth::Scenario::pure_walking(40.0), 560 + i).trace);
  }
  const auto config = [](std::size_t stream) {
    core::StreamingConfig cfg = config_for_user();
    cfg.pipeline.counter.anterior_window_s = stream % 2 == 1 ? 10.0 : 20.0;
    cfg.hop_s = std::array{0.5, 1.0, 2.0}[stream % 3];
    return cfg;
  };

  std::vector<std::vector<core::StepEvent>> alone(kStreams);
  for (std::size_t i = 0; i < kStreams; ++i) {
    core::StreamingTracker stream(traces[i].fs(), config(i));
    for (std::size_t k = 0; k < traces[i].size(); ++k) {
      stream.push(traces[i][k]);
      if ((k + 1) % kChunk == 0) stream.poll_into(alone[i]);
    }
    stream.drain_into(alone[i]);
    ASSERT_GT(alone[i].size(), 30u) << "stream " << i;
  }

  std::vector<std::vector<core::StepEvent>> together(kStreams);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::unique_ptr<core::StreamingTracker>> streams;
      streams.reserve(kStreamsPerThread);
      for (std::size_t j = 0; j < kStreamsPerThread; ++j) {
        const std::size_t i = t * kStreamsPerThread + j;
        streams.push_back(std::make_unique<core::StreamingTracker>(
            traces[i].fs(), config(i)));
      }
      start.arrive_and_wait();
      for (std::size_t k = 0;; k += kChunk) {
        bool any = false;
        for (std::size_t j = 0; j < kStreamsPerThread; ++j) {
          const std::size_t i = t * kStreamsPerThread + j;
          const std::size_t end = std::min(k + kChunk, traces[i].size());
          for (std::size_t q = k; q < end; ++q) streams[j]->push(traces[i][q]);
          if (k < end) {
            any = true;
            if (end - k == kChunk) streams[j]->poll_into(together[i]);
          }
        }
        if (!any) break;
      }
      for (std::size_t j = 0; j < kStreamsPerThread; ++j) {
        streams[j]->drain_into(together[t * kStreamsPerThread + j]);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t i = 0; i < kStreams; ++i) {
    SCOPED_TRACE(testing::Message() << "stream " << i);
    ASSERT_EQ(together[i].size(), alone[i].size());
    for (std::size_t e = 0; e < alone[i].size(); ++e) {
      EXPECT_EQ(together[i][e].t, alone[i][e].t);
      EXPECT_EQ(together[i][e].stride, alone[i][e].stride);
      EXPECT_EQ(together[i][e].type, alone[i][e].type);
      EXPECT_EQ(together[i][e].quality, alone[i][e].quality);
      EXPECT_EQ(together[i][e].degraded, alone[i][e].degraded);
    }
  }
}
