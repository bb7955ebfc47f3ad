// batch_cohort: a seeded cohort of CSV traces, loaded and processed in
// closed-loop rounds by runtime::load_trace_dir + BatchRunner::run with
// nproc executors. Every result must equal single-thread PTrack::process.
#include <algorithm>
#include <filesystem>
#include <fstream>

#include "bench.hpp"
#include "common/csv.hpp"
#include "core/ptrack.hpp"
#include "imu/trace_io.hpp"
#include "runtime/batch_runner.hpp"

namespace e2e {

namespace fs = std::filesystem;
namespace core = ptrack::core;
namespace runtime = ptrack::runtime;

namespace {

std::string rec_name(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "rec_%03zu.csv", i);
  return buf;
}

/// Writes the recordings as a directory of CSV traces; returns the path.
std::string write_cohort(const Options& opt,
                         const std::vector<Recording>& recs,
                         const std::string& sub) {
  const std::string dir = opt.work_dir + "/" + sub;
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    ptrack::imu::save_csv(recs[i].trace, dir + "/" + rec_name(i));
  }
  return dir;
}

struct Round {
  double wall_s = 0.0;
  double run_s = 0.0;
};

/// One timed round. With tracing on, the load is done file by file through
/// the imu calls load_trace_dir makes, so parse and build time separate.
Round round(const std::string& dir, runtime::BatchRunner& runner,
            const std::vector<core::TrackResult>& oracle, Report& rep,
            Timed& latency_us, double& parse_s,
            double& build_s) {
  Round r;
  const double t0 = now_s();
  tracer::Span root("ptrack.bench.round");
  std::vector<ptrack::imu::Trace> traces;
  if (!tracer::enabled()) {
    auto listing = runtime::load_trace_dir(dir);
    for (const auto& e : listing.errors) rep.fail("load: " + e.message);
    rep.attempted += listing.errors.size();
    traces.reserve(listing.traces.size());
    for (auto& nt : listing.traces) traces.push_back(std::move(nt.trace));
  } else {
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(dir)) files.push_back(e.path());
    std::sort(files.begin(), files.end());
    for (const auto& f : files) {
      const double a = now_s();
      ptrack::csv::Document doc;
      {
        tracer::Span s("ptrack.imu.csv_parse");
        doc = ptrack::csv::read(f.string());
      }
      const double b = now_s();
      {
        tracer::Span s("ptrack.imu.trace_build");
        traces.push_back(ptrack::imu::trace_from_document(doc, f.string()));
      }
      parse_s += b - a;
      build_s += now_s() - b;
    }
  }
  std::vector<runtime::TraceResult> results;
  {
    tracer::Span s("ptrack.runtime.batch_run");
    const double a = now_s();
    results = runner.run(traces);
    r.run_s = now_s() - a;
    // Attribute the pipeline's own stage timings to their layers.
    double q = 0.0;
    double c = 0.0;
    for (const auto& res : results) {
      if (!res.has_value()) continue;
      q += res.value().timing.quality_us;
      c += res.value().timing.project_us + res.value().timing.count_us +
           res.value().timing.stride_us;
    }
    const double ex = static_cast<double>(runner.threads());
    tracer::credit("imu", q * 1e-6 / ex);
    tracer::credit("core", c * 1e-6 / ex);
  }
  r.wall_s = now_s() - t0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    ++rep.attempted;
    if (i >= oracle.size()) {
      rep.fail("more batch results than traces");
      continue;
    }
    if (!results[i].has_value()) {
      rep.fail("trace failed: " + results[i].error().message);
      continue;
    }
    const auto& got = results[i].value();
    latency_us.emplace_back(t0, got.timing.total_us);
    if (got.steps != oracle[i].steps ||
        !same_events(got.events, oracle[i].events)) {
      rep.fail("batch result differs from single-thread PTrack::process (" +
               rec_name(i) + ")");
    }
  }
  if (results.size() != oracle.size()) rep.fail("batch lost traces");
  return r;
}

}  // namespace

void run_batch_cohort(const Options& opt, Report& rep) {
  // Many short traces: enough per-trace latencies for a stable p99.
  const std::size_t n = opt.tiny ? 4 : 48;
  const double len = 30.0;
  std::vector<double> setups;
  std::vector<Recording> recs;
  std::string dir;
  set_phase("batch: set-up (synthesis, CSV writing)");
  for (int i = 0; i < (opt.tiny ? 1 : 5); ++i) {
    const double t = now_s();
    recs = make_recordings(opt.seed, n, len);
    dir = write_cohort(opt, recs, "cohort");
    setups.push_back(now_s() - t);
  }
  rep.metric("setup_s", pct(setups, 50), "s");

  // Oracle: single-thread PTrack::process of the same CSV-loaded traces.
  const core::PTrack pipeline;
  std::vector<core::TrackResult> oracle;
  std::size_t total_samples = 0;
  {
    auto listing = runtime::load_trace_dir(dir);
    for (const auto& nt : listing.traces) {
      oracle.push_back(pipeline.process(nt.trace));
      total_samples += nt.trace.size();
    }
  }
  if (opt.perturb && !oracle.empty()) perturb_event(oracle[0].events);
  std::vector<std::size_t> steps;
  std::vector<double> dist;
  std::vector<double> confirm;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    steps.push_back(oracle[i].steps);
    dist.push_back(oracle[i].distance());
    // A batch user sees every step when the whole trace is done.
    for (const auto& e : oracle[i].events) {
      confirm.push_back(recs[i].trace.duration() - e.t);
    }
  }

  const Accuracy acc = accuracy(recs, steps, dist);
  rep.metric("accuracy.step_error", acc.step_error, "frac");
  rep.metric("accuracy.distance_error", acc.distance_error, "frac");

  set_phase("batch: load_trace_dir + BatchRunner::run rounds");
  runtime::BatchOptions bo;
  bo.threads = opt.nproc;
  runtime::BatchRunner runner(core::PTrackConfig{}, bo);
  Timed latency_us;
  std::vector<double> walls;
  std::vector<double> runs;
  double parse_s = 0.0;
  double build_s = 0.0;
  auto loop = [&](double seconds, std::vector<double>& w) {
    const double t_end = now_s() + seconds;
    do {
      const Round r =
          round(dir, runner, oracle, rep, latency_us, parse_s, build_s);
      w.push_back(r.wall_s);
      runs.push_back(r.run_s);
    } while (now_s() < t_end);
  };

  if (!opt.trace) {
    loop(opt.seconds, walls);
    // Lower quartile of the round walls: rounds slowed by host steal time
    // move the upper half, not the result.
    const double wall = pct(walls, 25);
    rep.metric("throughput_ksps",
               wall > 0 ? static_cast<double>(total_samples) / wall / 1e3 : 0.0,
               "ksamples/s");
    // Per-trace pipeline latency inside the batch: percentiles per 5 s
    // window, lower quartile over the windows.
    report_latency(latency_us, 5.0, 500, rep);
    rep.samples["rounds"] = static_cast<double>(walls.size());
    rep.samples["batch_wall_s_p25"] = wall;
    rep.samples["batch_wall_s_p50"] = pct(walls, 50);
    rep.metric("confirm_delay_p50_s", pct(confirm, 50), "s");
    rep.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    return;
  }

  // Traced run: untraced rounds, then traced rounds; overhead is the ratio
  // of their median walls.
  std::vector<double> plain;
  loop(0.5 * opt.seconds, plain);
  tracer::set_enabled(true);
  std::vector<double> traced;
  parse_s = build_s = 0.0;
  runs.clear();
  loop(0.5 * opt.seconds, traced);
  tracer::set_enabled(false);
  report_trace_split(rep);
  rep.metric("trace.overhead_frac", pct(traced, 50) / pct(plain, 50) - 1.0,
             "frac");
  run_layer_probes(opt, recs, rep);
  // The cohort's own CSV figures replace the probe's.
  double bytes = 0.0;
  for (const auto& e : fs::directory_iterator(dir)) {
    bytes += static_cast<double>(e.file_size());
  }
  const double rounds = static_cast<double>(traced.size());
  const double per_trace = rounds * static_cast<double>(recs.size());
  rep.metric("imu.csv_parse_ms", parse_s * 1e3 / per_trace, "ms");
  rep.metric("imu.trace_build_ms", build_s * 1e3 / per_trace, "ms");
  rep.metric("imu.load_mb_per_s", bytes * rounds / 1e6 / (parse_s + build_s),
             "MB/s");
  // Parallel efficiency of the cohort's own runs.
  const double single_ms = rep.metrics["core.batch_process_ms_per_trace"].first;
  rep.metric("runtime.batch_parallel_efficiency",
             single_ms * 1e-3 * static_cast<double>(recs.size()) /
                 (static_cast<double>(runner.threads()) * pct(runs, 50)),
             "frac");
  probe_daemon(opt, recs, /*open_loop=*/true, rep);
  probe_runtime(opt, recs, rep);
}

}  // namespace e2e
