// Microbenchmarks (google-benchmark): throughput of the DSP kernels and of
// the full PTrack pipeline. A smartwatch streams 100 samples/s, so a
// pipeline that processes minutes of trace in milliseconds leaves orders
// of magnitude of headroom for wearable-class CPUs.
//
// Besides the console table, the binary writes BENCH_throughput.json
// (override the path with the PTRACK_BENCH_JSON environment variable) in
// the shared bench schema {"bench": ..., "host": {...}, "metrics": {...}}:
// one record per benchmark with items/sec and ns/iteration plus the
// observability counters accumulated over the run, so the perf trajectory
// is machine-trackable across PRs. "host" is the machine block
// (bench::write_host) with workers = 1: every benchmark runs on one thread
// except BM_PipelineBatch, whose worker count is in its name.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "core/frontend.hpp"
#include "core/ptrack.hpp"
#include "core/stages.hpp"
#include "obs/metrics.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/integrate.hpp"
#include "dsp/projection.hpp"
#include "dsp/simd.hpp"
#include "dsp/workspace.hpp"
#include "imu/faults.hpp"
#include "imu/quality.hpp"
#include "models/gfit.hpp"
#include "runtime/batch_runner.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

const synth::SynthResult& walking_minute() {
  static const synth::SynthResult r = [] {
    Rng rng(bench::kBenchSeed ^ 0xbeef);
    const auto user = bench::make_users(1).front();
    return synth::synthesize(synth::Scenario::pure_walking(60.0), user,
                             bench::standard_options(), rng);
  }();
  return r;
}

/// Independent one-minute walking traces for the batch-scaling benchmark
/// (distinct users — trace lengths and content differ realistically).
const std::vector<imu::Trace>& walking_batch() {
  static const std::vector<imu::Trace> traces = [] {
    const std::size_t kTraces = 8;
    std::vector<imu::Trace> out;
    out.reserve(kTraces);
    const auto users = bench::make_users(kTraces);
    for (std::size_t i = 0; i < kTraces; ++i) {
      Rng rng(bench::kBenchSeed ^ (0x5a5a + i));
      out.push_back(synth::synthesize(synth::Scenario::pure_walking(60.0),
                                      users[i], bench::standard_options(), rng)
                        .trace);
    }
    return out;
  }();
  return traces;
}

void BM_ButterworthFiltfilt(benchmark::State& state) {
  const auto xs = walking_minute().trace.accel_magnitude();
  const auto cascade = dsp::butterworth_lowpass(4, 3.0, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::filtfilt(cascade, xs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xs.size()));
}
BENCHMARK(BM_ButterworthFiltfilt);

void BM_ButterworthFiltfiltWorkspace(benchmark::State& state) {
  const auto xs = walking_minute().trace.accel_magnitude();
  const auto cascade = dsp::butterworth_lowpass(4, 3.0, 100.0);
  dsp::Workspace ws;
  std::vector<double> out;
  for (auto _ : state) {
    dsp::filtfilt_into(cascade, xs, 64, ws, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xs.size()));
}
BENCHMARK(BM_ButterworthFiltfiltWorkspace);

/// The first 2000 samples of each accelerometer channel.
std::array<std::vector<double>, 3> axis_window(const imu::Trace& trace) {
  std::array<std::vector<double>, 3> out;
  for (std::size_t axis = 0; axis < out.size(); ++axis) {
    out[axis] = trace.accel_axis(static_cast<int>(axis));
    out[axis].resize(2000);
  }
  return out;
}

// The two axis estimators over a 20 s (2000-sample) window, the default
// axis window. BM_EstimateUp arg table:1 takes the gravity weights from a
// precomputed table (one weighted sum per channel, as the projection's
// registry tables do); table:0 first computes them into workspace scratch
// with one scalar forward/backward filter pass (dsp::project's path).
// ProjectionStage reads both from per-block statistics for most of the
// window (core/stages.cpp), so these bound a block's fit from above.
void BM_EstimateUp(benchmark::State& state) {
  const imu::Trace& trace = walking_minute().trace;
  const auto chans = axis_window(trace);
  const std::span<const double> x = chans[0];
  const std::span<const double> y = chans[1];
  const std::span<const double> z = chans[2];
  const std::size_t n = x.size();
  const dsp::GravityWeights table(n, trace.fs(), dsp::kGravityCutoffHz);
  dsp::Workspace ws;
  const bool use_table = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        use_table ? dsp::estimate_up(x, y, z, table.weights())
                  : dsp::estimate_up(x, y, z, trace.fs(),
                                     dsp::kGravityCutoffHz, ws));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(3 * n));
}
BENCHMARK(BM_EstimateUp)->ArgName("table")->Arg(0)->Arg(1);

void BM_PrincipalHorizontal(benchmark::State& state) {
  const imu::Trace& trace = walking_minute().trace;
  const auto chans = axis_window(trace);
  const std::span<const double> x = chans[0];
  const std::span<const double> y = chans[1];
  const std::span<const double> z = chans[2];
  const std::size_t n = x.size();
  dsp::Workspace ws;
  const Vec3 up = dsp::estimate_up(x, y, z, trace.fs(),
                                   dsp::kGravityCutoffHz, ws);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::principal_horizontal_direction(x, y, z, up));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(3 * n));
}
BENCHMARK(BM_PrincipalHorizontal);

// SIMD micro-kernel, arg 0 = forced scalar fallback, arg 1 = detected ISA:
// the kernel-level record of the vector win in BENCH_throughput.json.
// axis_project is the widest pure-map kernel.
void BM_AxisProject(benchmark::State& state) {
  const auto xs = walking_minute().trace.accel_magnitude();
  const std::size_t n = 2000;
  const std::span<const double> x(xs.data(), n);
  const std::span<const double> y(xs.data() + n, n);
  const std::span<const double> z(xs.data() + 2 * n, n);
  const Vec3 up = Vec3{0.1, 0.2, 0.97}.normalized();
  std::vector<double> out(n);
  dsp::simd::force_isa(state.range(0) != 0 ? dsp::simd::detected()
                                           : dsp::simd::Isa::kScalar);
  for (auto _ : state) {
    dsp::simd::axis_project(x, y, z, up, 9.81, out);
    benchmark::DoNotOptimize(out.data());
  }
  dsp::simd::force_isa(dsp::simd::detected());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_AxisProject)->ArgName("simd")->Arg(0)->Arg(1);

void BM_Projection(benchmark::State& state) {
  const auto& trace = walking_minute().trace;
  const auto x = trace.accel_axis(0);
  const auto y = trace.accel_axis(1);
  const auto z = trace.accel_axis(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::project(x, y, z, 100.0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_Projection);

void BM_Fft4096(benchmark::State& state) {
  const auto xs = walking_minute().trace.accel_magnitude();
  const std::span<const double> head(xs.data(), 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::magnitude_spectrum(head));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(head.size()));
}
BENCHMARK(BM_Fft4096);

void BM_AutocorrCycle(benchmark::State& state) {
  const auto xs = walking_minute().trace.accel_magnitude();
  const std::span<const double> cycle(xs.data(), 110);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::autocorr_at(cycle, 55));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cycle.size()));
}
BENCHMARK(BM_AutocorrCycle);

// Every lag up to 2 s over a 60 s / 100 Hz trace through the direct lag
// loop — far more work than any caller asks of it (SCAR's dominant-period
// search covers 1 s of lags over a 2 s window), so it bounds the kernel's
// cost from above. Items = samples of the input trace.
void BM_Autocorr(benchmark::State& state) {
  const auto xs = walking_minute().trace.accel_magnitude();
  const std::size_t max_lag = 200;  // 2 s at 100 Hz
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::autocorr(xs, max_lag));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xs.size()));
}
BENCHMARK(BM_Autocorr);

void BM_MeanRemovalIntegration(benchmark::State& state) {
  const auto xs = walking_minute().trace.accel_magnitude();
  const std::span<const double> seg(xs.data(), 55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::net_displacement(seg, 0.01));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(seg.size()));
}
BENCHMARK(BM_MeanRemovalIntegration);

void BM_GfitCounterMinute(benchmark::State& state) {
  const imu::Trace& trace = walking_minute().trace;
  for (auto _ : state) {
    models::PeakCounter counter(models::gfit_watch_config());
    benchmark::DoNotOptimize(counter.count_steps(trace));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_GfitCounterMinute);

void BM_PTrackPipelineMinute(benchmark::State& state) {
  const imu::Trace& trace = walking_minute().trace;
  for (auto _ : state) {
    core::PTrack tracker;
    benchmark::DoNotOptimize(tracker.process(trace));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_PTrackPipelineMinute);

// Batch fan-out scaling: 8 one-minute traces through runtime::BatchRunner
// at 1/2/4/8 worker threads. Items = total samples in the batch. Real time
// (not CPU time) is the relevant axis for a scaling benchmark.
void BM_PipelineBatch(benchmark::State& state) {
  const std::vector<imu::Trace>& traces = walking_batch();
  int64_t total_samples = 0;
  for (const auto& t : traces) total_samples += static_cast<int64_t>(t.size());

  runtime::BatchOptions opt;
  opt.threads = static_cast<std::size_t>(state.range(0));
  runtime::BatchRunner runner({}, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(traces));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          total_samples);
}
BENCHMARK(BM_PipelineBatch)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// One steady 1 s streaming hop of the segmentation stage at 100 Hz: the
// recorded walking minute's projected vertical channel is fed in 100-sample
// hops (repeated end to end, so the stream never ends) with the channel
// trimmed to what the stage retains, as StagePipeline does. The peak scan
// carries its raw maxima across hops and walks each one once, within its
// bounded prominence window. Items = samples.
void BM_SegmentationSteadyHop(benchmark::State& state) {
  const core::StepCounterConfig cfg;
  const std::vector<double> vertical =
      core::project_trace(walking_minute().trace, cfg).vertical;
  const double fs = walking_minute().trace.fs();
  const std::size_t hop = 100;
  core::SegmentationStage stage(cfg, fs);
  Ring<double> ring;
  std::vector<core::CycleCandidate> out;
  out.reserve(64);
  std::size_t next = 0;
  const auto advance = [&] {
    for (std::size_t k = 0; k < hop; ++k) {
      ring.push(vertical[next]);
      next = next + 1 == vertical.size() ? 0 : next + 1;
    }
    out.clear();
    stage.advance(ring, false, out);
    ring.trim_to(std::min(stage.min_required(), ring.end()));
  };
  for (int warm = 0; warm < 20; ++warm) advance();  // fill the windows
  for (auto _ : state) {
    advance();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(hop));
}
BENCHMARK(BM_SegmentationSteadyHop);

// The online quality stage's per-sample path, as the streaming tracker
// drives it: one push per sample into a reused output buffer. faulted:0 is
// the clean walking minute (every sample takes the clean fast path);
// faulted:1 the same minute with dropouts, clipping and spikes injected.
// Items = samples.
void BM_IncrementalQuality(benchmark::State& state) {
  imu::Trace trace = walking_minute().trace;
  if (state.range(0) != 0) {
    Rng rng(bench::kBenchSeed ^ 0x9a);
    trace = imu::inject_dropouts(trace, 4.0, 10, 60, rng);
    trace = imu::clip_acceleration(trace, 25.0);
    trace = imu::inject_spikes(trace, 6.0, 8.0, rng);
  }
  std::vector<imu::RepairedSample> out;
  out.reserve(64);
  for (auto _ : state) {
    imu::IncrementalQuality quality(trace.fs());
    for (const imu::Sample& s : trace.samples()) {
      out.clear();
      quality.push(s, out);
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_IncrementalQuality)->ArgName("faulted")->Arg(0)->Arg(1);

void BM_SynthesizeMinute(benchmark::State& state) {
  const auto user = bench::make_users(1).front();
  std::uint64_t seed = 1;
  int64_t samples = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    const auto r = synth::synthesize(synth::Scenario::pure_walking(60.0), user,
                                     bench::standard_options(), rng);
    benchmark::DoNotOptimize(&r);
    samples += static_cast<int64_t>(r.trace.size());
  }
  state.SetItemsProcessed(samples);
}
BENCHMARK(BM_SynthesizeMinute);

/// Console output as usual, plus one JSON record per benchmark run with
/// the throughput counters.
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      // Plain runs are recorded directly; with --benchmark_repetitions the
      // median aggregate is recorded instead (suffix "_median" in the name).
      const bool plain = run.run_type == Run::RT_Iteration;
      const bool median = run.run_type == Run::RT_Aggregate &&
                          run.aggregate_name == "median";
      if (!plain && !median) continue;
      Record rec;
      rec.name = run.benchmark_name();
      rec.real_time_ns = run.GetAdjustedRealTime();
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) rec.items_per_second = it->second.value;
      records_.push_back(rec);
    }
  }

  void write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "micro_throughput: cannot open " << path << "\n";
      return;
    }
    json::Writer w(out);
    w.begin_object();
    w.key("bench").value("throughput");
    bench::write_host(w, 1);
    w.key("metrics").begin_object();
    w.key("simd_isa").value(dsp::simd::isa_name(dsp::simd::detected()));
    w.key("benchmarks").begin_array();
    for (const Record& rec : records_) {
      w.begin_object();
      w.key("name").value(rec.name);
      w.key("items_per_second").value(rec.items_per_second);
      w.key("real_time_ns").value(rec.real_time_ns);
      w.end_object();
    }
    w.end_array();
    w.key("obs");
    obs::Registry::instance().write_json(w);
    w.end_object();
    w.end_object();
    out << '\n';
  }

 private:
  struct Record {
    std::string name;
    double items_per_second = 0.0;
    double real_time_ns = 0.0;
  };
  std::vector<Record> records_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonExportReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const char* path = std::getenv("PTRACK_BENCH_JSON");
  reporter.write_json(path != nullptr ? path : "BENCH_throughput.json");
  benchmark::Shutdown();
  return 0;
}
