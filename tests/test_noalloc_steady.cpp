// Zero-allocation steady-state contract (DESIGN.md §15): once a streaming
// tracker has flushed once (warm-up) and its buffers, rings and per-thread
// scratch have reached steady capacity, an incremental hop must not touch
// the heap at all. This sweep drives every equivalence scenario — walking,
// stepping, mixed gait, interference and a fault-injected stream — through
// >= 100 consecutive measured hops and
// asserts the thread's allocation counter does not move. Enforcement mode
// is armed as well (when checks are compiled in), so a regression throws at
// the offending allocation site instead of only failing the final count.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/alloc_hooks.hpp"
#include "core/streaming.hpp"
#include "imu/faults.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

constexpr std::size_t kMeasuredHops = 120;  // acceptance floor is 100

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

// Drives `hops` incremental hops by replaying the trace cyclically (the
// tracker restamps sample times, so the replay is a seamless continuation)
// and polls into a reused sink. Returns the number of operator-new calls
// the measured region performed on this thread.
std::uint64_t run_hops(core::StreamingTracker& stream, const imu::Trace& trace,
                       std::size_t hop_samples, std::size_t& cursor,
                       std::size_t hops, std::vector<core::StepEvent>& sink) {
  const alloc::ThreadStats before = alloc::thread_stats();
  for (std::size_t h = 0; h < hops; ++h) {
    for (std::size_t i = 0; i < hop_samples; ++i) {
      stream.push(trace[cursor]);
      if (++cursor == trace.size()) cursor = 0;
    }
    stream.poll_into(sink);
  }
  const alloc::ThreadStats after = alloc::thread_stats();
  return after.allocations - before.allocations;
}

void expect_steady_hops_allocation_free(
    const NamedTrace& s,
    double anterior_window_s = core::StepCounterConfig{}.anterior_window_s) {
  synth::UserProfile user;
  core::StreamingConfig cfg;
  cfg.pipeline.stride.profile = {user.arm_length, user.leg_length, 2.0};
  cfg.pipeline.counter.anterior_window_s = anterior_window_s;

  core::StreamingTracker stream(s.trace.fs(), cfg);
  const auto hop_samples = static_cast<std::size_t>(cfg.hop_s * s.trace.fs());
  ASSERT_GE(s.trace.size(), hop_samples);

  // Warm-up: the full trace, one flush (finish() — this is the warm-up
  // flush the contract names), then unmeasured hops spanning TWO full
  // cyclic replay periods. One period guarantees every cycle shape in the
  // trace — including the wrap-seam cycle the replay stitches together —
  // has sized the per-thread scratch; the second lets any state that the
  // first wrap perturbed (adaptive quality statistics) settle back into
  // the periodic steady state before measurement begins.
  std::vector<core::StepEvent> sink;
  sink.reserve(4096);
  stream.push(s.trace);
  for (const core::StepEvent& e : stream.finish()) sink.push_back(e);
  std::size_t cursor = 0;
  const std::size_t hops_per_wrap =
      (s.trace.size() + hop_samples - 1) / hop_samples;
  const std::size_t warmup_hops = 2 * hops_per_wrap + 5;
  run_hops(stream, s.trace, hop_samples, cursor, warmup_hops, sink);

  // Measured region: arm enforcement (throws at the allocation site when
  // checks are compiled in) and require a zero counter delta either way.
  stream.set_enforce_no_alloc(true);
  const std::uint64_t allocs =
      run_hops(stream, s.trace, hop_samples, cursor, kMeasuredHops, sink);
  EXPECT_EQ(allocs, 0u) << s.name << ": " << allocs
                        << " heap allocations across " << kMeasuredHops
                        << " steady-state hops";
  // The stream stayed live through the measured region (sanity: the hops
  // actually processed samples, not a stalled pipeline).
  EXPECT_GE(stream.stats().windows_processed, warmup_hops + kMeasuredHops);
}

}  // namespace

TEST(NoAllocSteadyState, DoublePrecisionAcrossScenarios) {
  for (const NamedTrace& s : scenarios()) {
    SCOPED_TRACE(s.name);
    expect_steady_hops_allocation_free(s);
  }
}

// A 10 s axis window (Fig. 9's) fits its axes with another gravity table;
// its steady blocks must be allocation-free too.
TEST(NoAllocSteadyState, WindowedAnteriorAcrossScenarios) {
  for (const NamedTrace& s : scenarios()) {
    SCOPED_TRACE(s.name);
    expect_steady_hops_allocation_free(s, 10.0);
  }
}
