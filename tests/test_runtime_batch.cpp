// Runtime tests: BatchRunner is deterministic — the same batch
// produces bit-identical TrackResults at 1 and 8 worker threads, in input
// order, matching a direct single-threaded PTrack run. Fault isolation:
// a trace that throws in the pipeline or a CSV that fails to parse is
// reported in its own slot and the rest of the batch still completes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/ptrack.hpp"
#include "imu/trace_io.hpp"
#include "runtime/batch_runner.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

std::vector<imu::Trace> make_batch(std::size_t count) {
  std::vector<imu::Trace> traces;
  traces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(0x5eed + i);
    synth::UserProfile user;
    user.arm_length = 0.62 + 0.02 * static_cast<double>(i);
    user.leg_length = 0.85 + 0.015 * static_cast<double>(i);
    // Mix of activities and durations so trace lengths and content differ.
    const double dur = 20.0 + 5.0 * static_cast<double>(i % 3);
    const auto scenario = (i % 2 == 0) ? synth::Scenario::pure_walking(dur)
                                       : synth::Scenario::pure_stepping(dur);
    traces.push_back(
        synth::synthesize(scenario, user, synth::SynthOptions{}, rng).trace);
  }
  return traces;
}

void expect_identical(const core::TrackResult& a, const core::TrackResult& b) {
  EXPECT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    // Bit-identical, not merely close: determinism is the contract.
    EXPECT_EQ(a.events[i].t, b.events[i].t);
    EXPECT_EQ(a.events[i].stride, b.events[i].stride);
    EXPECT_EQ(a.events[i].type, b.events[i].type);
  }
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  for (std::size_t i = 0; i < a.cycles.size(); ++i) {
    EXPECT_EQ(a.cycles[i].begin, b.cycles[i].begin);
    EXPECT_EQ(a.cycles[i].end, b.cycles[i].end);
    EXPECT_EQ(a.cycles[i].type, b.cycles[i].type);
    EXPECT_EQ(a.cycles[i].offset, b.cycles[i].offset);
    EXPECT_EQ(a.cycles[i].half_cycle_corr, b.cycles[i].half_cycle_corr);
  }
}

}  // namespace

TEST(BatchRunner, ResolvesThreadCount) {
  // `threads` counts the calling thread; 0 means one per hardware thread.
  EXPECT_EQ(runtime::BatchRunner({}, {.threads = 3}).threads(), 3u);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(runtime::BatchRunner({}, {.threads = 0}).threads(),
            hw > 0 ? std::size_t{hw} : 1u);
}

TEST(BatchRunner, MatchesDirectPipelineInInputOrder) {
  const auto traces = make_batch(5);
  runtime::BatchRunner runner({}, {.threads = 4});
  const auto results = runner.run(traces);
  ASSERT_EQ(results.size(), traces.size());

  for (std::size_t i = 0; i < traces.size(); ++i) {
    core::PTrack direct;
    const auto expected = direct.process(traces[i]);
    ASSERT_TRUE(results[i].has_value());
    expect_identical(expected, *results[i]);
  }
}

TEST(BatchRunner, ThreadCountDoesNotChangeResults) {
  const auto traces = make_batch(9);
  runtime::BatchRunner serial({}, {.threads = 1});
  runtime::BatchRunner wide({}, {.threads = 8});
  const auto r1 = serial.run(traces);
  const auto r8 = wide.run(traces);
  ASSERT_EQ(r1.size(), traces.size());
  ASSERT_EQ(r8.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    ASSERT_TRUE(r1[i].has_value());
    ASSERT_TRUE(r8[i].has_value());
    expect_identical(*r1[i], *r8[i]);
  }
  // A repeated run on a warm runner must also be identical (workspace reuse
  // must not leak state between batches).
  const auto r8_again = wide.run(traces);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    expect_identical(*r8[i], *r8_again[i]);
  }
}

// A trace the CSV layer accepts (all cells finite) but the pipeline rejects:
// nonphysical register-garbage magnitudes make the quality layer declare it
// unusable, and PTrack::process throws.
imu::Trace make_poison_trace() {
  std::vector<imu::Sample> samples(256);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].t = static_cast<double>(i) / 100.0;
    samples[i].accel = {1.0e9, -1.0e9, 1.0e9};
    samples[i].gyro = {1.0e9, 1.0e9, -1.0e9};
  }
  return imu::Trace(100.0, std::move(samples));
}

TEST(BatchRunner, IsolatesThrowingTraceAndCompletesTheRest) {
  auto traces = make_batch(5);
  const std::size_t poison = 2;
  traces.insert(traces.begin() + static_cast<std::ptrdiff_t>(poison),
                make_poison_trace());

  runtime::BatchRunner runner({}, {.threads = 4});
  const auto results = runner.run(traces);
  ASSERT_EQ(results.size(), traces.size());

  ASSERT_FALSE(results[poison].has_value());
  EXPECT_EQ(results[poison].error().stage,
            runtime::TraceError::Stage::Process);
  EXPECT_EQ(results[poison].error().trace, "#2");
  EXPECT_FALSE(results[poison].error().message.empty());

  // Every other slot holds exactly the result a direct run produces, in
  // input order — the failure neither shifts nor corrupts its neighbors.
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i == poison) continue;
    core::PTrack direct;
    ASSERT_TRUE(results[i].has_value()) << "slot " << i;
    expect_identical(direct.process(traces[i]), *results[i]);
  }

  // The runner (and its pool) must stay usable after a poisoned batch.
  const auto again = runner.run(make_batch(2));
  ASSERT_EQ(again.size(), 2u);
  EXPECT_TRUE(again[0].has_value());
  EXPECT_TRUE(again[1].has_value());
}

TEST(BatchRunner, EmptyBatchYieldsEmptyResults) {
  runtime::BatchRunner runner;
  EXPECT_TRUE(runner.run({}).empty());
}

TEST(LoadTraceDir, LoadsCsvFilesSortedByName) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "ptrack_test_batch_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto traces = make_batch(3);
  // Intentionally created out of order; the loader must sort by file name.
  imu::save_csv(traces[2], (dir / "c_trace.csv").string());
  imu::save_csv(traces[0], (dir / "a_trace.csv").string());
  imu::save_csv(traces[1], (dir / "b_trace.csv").string());
  {  // Non-CSV clutter must be ignored.
    std::FILE* f = std::fopen((dir / "notes.txt").string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace\n", f);
    std::fclose(f);
  }

  const auto listing = runtime::load_trace_dir(dir.string());
  EXPECT_TRUE(listing.errors.empty());
  const auto& named = listing.traces;
  ASSERT_EQ(named.size(), 3u);
  EXPECT_EQ(named[0].name, "a_trace.csv");
  EXPECT_EQ(named[1].name, "b_trace.csv");
  EXPECT_EQ(named[2].name, "c_trace.csv");
  EXPECT_EQ(named[0].trace.size(), traces[0].size());
  EXPECT_EQ(named[1].trace.size(), traces[1].size());
  EXPECT_EQ(named[2].trace.size(), traces[2].size());

  fs::remove_all(dir);
}

TEST(LoadTraceDir, CollectsCorruptFilesInsteadOfAborting) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "ptrack_test_mixed_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto traces = make_batch(2);
  imu::save_csv(traces[0], (dir / "a_good.csv").string());
  imu::save_csv(traces[1], (dir / "d_good.csv").string());
  const auto write_text = [&](const char* name, const char* text) {
    std::FILE* f = std::fopen((dir / name).string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
  };
  // One file that is not a trace at all, one truncated mid-row.
  write_text("b_garbage.csv", "this,is,not\na,trace,file\n");
  write_text("c_truncated.csv",
             "t,ax,ay,az,gx,gy,gz\n100,0,0,0,0,0,0\n"
             "0,0,0,9.81,0,0,0\n0.01,0,0");

  const auto listing = runtime::load_trace_dir(dir.string());
  ASSERT_EQ(listing.traces.size(), 2u);
  EXPECT_EQ(listing.traces[0].name, "a_good.csv");
  EXPECT_EQ(listing.traces[1].name, "d_good.csv");
  ASSERT_EQ(listing.errors.size(), 2u);
  EXPECT_EQ(listing.errors[0].trace, "b_garbage.csv");
  EXPECT_EQ(listing.errors[1].trace, "c_truncated.csv");
  for (const auto& err : listing.errors) {
    EXPECT_EQ(err.stage, runtime::TraceError::Stage::Load);
    EXPECT_FALSE(err.message.empty());
  }

  fs::remove_all(dir);
}

TEST(LoadTraceDir, MissingDirectoryThrows) {
  EXPECT_THROW(runtime::load_trace_dir("/nonexistent/ptrack/dir"), Error);
}
