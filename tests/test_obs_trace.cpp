// Tests for the span tracer and Chrome-trace export: balanced B/E pairs
// (single- and multi-threaded), the runtime kill switch, and the
// end-to-end guarantee that a pipeline run leaves matched stage spans and
// a populated TrackResult::timing block.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/ptrack.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

json::Value exported_trace() {
  std::ostringstream os;
  obs::write_chrome_trace(os);
  return json::parse(os.str());
}

/// Walks the trace events and checks per-tid stack balance (E matches the
/// innermost open B by name; nothing left open). Returns the number of
/// closed spans per name.
std::map<std::string, std::size_t> balanced_span_counts(
    const json::Value& doc) {
  std::map<double, std::vector<std::string>> stacks;
  std::map<std::string, std::size_t> closed;
  for (const json::Value& e : doc.at("traceEvents").items()) {
    const std::string& ph = e.at("ph").as_string();
    const std::string& name = e.at("name").as_string();
    const double tid = e.at("tid").as_number();
    EXPECT_GE(e.at("ts").as_number(), 0.0);
    auto& stack = stacks[tid];
    if (ph == "B") {
      stack.push_back(name);
    } else {
      EXPECT_EQ(ph, "E");
      EXPECT_FALSE(stack.empty()) << "stray E for " << name;
      if (stack.empty()) return closed;
      EXPECT_EQ(stack.back(), name);
      stack.pop_back();
      ++closed[name];
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "tid " << tid << " left a span open";
  }
  return closed;
}

}  // namespace

TEST(ObsTrace, ExportIsValidWhenEmpty) {
  obs::reset_trace();
  const json::Value doc = exported_trace();
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  EXPECT_TRUE(doc.at("traceEvents").items().empty());
}

TEST(ObsTrace, NestedSpansBalance) {
  obs::set_enabled(true);
  obs::reset_trace();
  {
    PTRACK_OBS_SPAN("test.outer");
    { PTRACK_OBS_SPAN("test.inner"); }
    { PTRACK_OBS_SPAN("test.inner"); }
  }
  const auto closed = balanced_span_counts(exported_trace());
  EXPECT_EQ(closed.at("test.outer"), 1u);
  EXPECT_EQ(closed.at("test.inner"), 2u);
}

TEST(ObsTrace, ThreadsGetSeparateBalancedRings) {
  obs::set_enabled(true);
  obs::reset_trace();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        PTRACK_OBS_SPAN("test.worker");
        PTRACK_OBS_SPAN("test.worker_inner");
      }
    });
  }
  for (auto& t : threads) t.join();

  const json::Value doc = exported_trace();
  const auto closed = balanced_span_counts(doc);
  EXPECT_EQ(closed.at("test.worker"), kThreads * kSpansPerThread);
  EXPECT_EQ(closed.at("test.worker_inner"), kThreads * kSpansPerThread);
  // Spans from different threads land on different tids.
  std::map<double, bool> tids;
  for (const json::Value& e : doc.at("traceEvents").items()) {
    tids[e.at("tid").as_number()] = true;
  }
  EXPECT_GE(tids.size(), kThreads);
}

TEST(ObsTrace, KillSwitchSuppressesRecording) {
  obs::set_enabled(true);
  obs::reset_trace();
  obs::set_enabled(false);
  { PTRACK_OBS_SPAN("test.suppressed"); }
  obs::set_enabled(true);
  const auto closed = balanced_span_counts(exported_trace());
  EXPECT_EQ(closed.count("test.suppressed"), 0u);
}

TEST(ObsTrace, SpanOpenAcrossDisableStillBalances) {
  obs::set_enabled(true);
  obs::reset_trace();
  {
    PTRACK_OBS_SPAN("test.toggled");
    obs::set_enabled(false);  // span was recording at construction
  }
  obs::set_enabled(true);
  const auto closed = balanced_span_counts(exported_trace());
  EXPECT_EQ(closed.at("test.toggled"), 1u);
}

TEST(ObsTrace, PipelineRunLeavesStageSpansAndTiming) {
  obs::set_enabled(true);
  obs::reset_trace();

  Rng rng(901);
  synth::UserProfile user;
  const auto synth_result = synth::synthesize(
      synth::Scenario::pure_walking(30.0), user, synth::SynthOptions{}, rng);
  core::PTrackConfig cfg;
  cfg.stride.profile = {user.arm_length, user.leg_length, 2.0};
  const core::PTrack tracker(cfg);
  const core::TrackResult result = tracker.process(synth_result.trace);
  ASSERT_GT(result.steps, 0u);

  const auto closed = balanced_span_counts(exported_trace());
  EXPECT_GE(closed.at("ptrack.core.process"), 1u);
  EXPECT_GE(closed.at("ptrack.core.project"), 1u);
  EXPECT_GE(closed.at("ptrack.core.count"), 1u);
  EXPECT_GE(closed.at("ptrack.imu.quality"), 1u);

  EXPECT_GT(result.timing.quality_us, 0.0);
  EXPECT_GT(result.timing.project_us, 0.0);
  EXPECT_GT(result.timing.count_us, 0.0);
  EXPECT_GE(result.timing.stride_us, 0.0);
  EXPECT_GE(result.timing.total_us,
            result.timing.project_us + result.timing.count_us);
}
