// Shared declarations of the end-to-end benchmark (e2e_bench).
//
// One binary runs one workload (serve_uds, batch_cohort, fleet_mixed) for a
// given seed and prints its metrics as one JSON line (see README.md). The
// benchmark calls only public entry points of the PTrack libraries; every
// timing here is taken from benchmark code around those calls.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "imu/trace.hpp"
#include "net/socket.hpp"

namespace e2e {

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< smoke-test size: few, short inputs
  bool perturb = false;       ///< corrupt one expected event (smoke test)
  std::string bin_dir;        ///< where ptrack_serve / obs_check live
  std::string work_dir;       ///< scratch files (CSV cohort, sockets, trace)
  double serve_rate_ksps = 300.0;  ///< serve_uds open-loop offered rate
  double fleet_hop_rate = 4000.0;  ///< fleet_mixed open-loop hops per second
  unsigned nproc = 1;
};

// ----------------------------------------------------------------- report

/// What one run prints: the final JSON line plus a detail line (host block
/// and percentile sample counts) just before it.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> samples;  ///< percentile sample counts
  std::map<std::string, double> info;     ///< unbounded figures (detail line)

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  /// Adds a probe's operation counts and failures to this report.
  void absorb(const Report& probe, const std::string& prefix) {
    attempted += probe.attempted;
    failed += probe.failed;
    for (const auto& f : probe.failures) {
      if (failures.size() < 8) failures.push_back(prefix + f);
    }
  }
};

// ------------------------------------------------------------------ time

double now_s();
std::uint64_t now_ns();
void sleep_until_s(double t);

/// common::stats::percentile over a copy; 0 for an empty sample.
double pct(std::span<const double> xs, double p);
double mean_of(std::span<const double> xs);

/// Values tagged with the steady-clock time (s) they were taken at.
using Timed = std::vector<std::pair<double, double>>;
/// Least-squares slope of y over x (backlog growth per second).
double slope(const Timed& xy);
/// Lower quartile over consecutive `window_s` windows of each window's
/// p-th percentile; windows with fewer than `min_n` values are skipped.
/// Episodes of host interference (vCPU steal lasting seconds on a shared
/// VM) then move a minority of windows, not the result. Falls back to the
/// plain percentile when no window qualifies.
double windowed_pct(const Timed& xs, double window_s, double p,
                    std::size_t min_n);
/// Reports latency_p50_us and latency_p90_us (windowed_pct) and, unbounded
/// in the detail line, the p99: host steal time moves a p99 more than any
/// bound this benchmark uses (0.25).
void report_latency(const Timed& xs, double window_s, std::size_t min_n,
                    Report& rep);
/// A unit of work that completed `amount` items over [start, end].
struct Completed {
  double start = 0.0;
  double end = 0.0;
  double amount = 0.0;
};
/// Upper quartile over the whole `window_s` windows of [t0, t1) of the
/// completed amount per second, each item spread evenly over its own
/// interval (so the rate is not quantized to whole items): the
/// quiet-window counterpart of windowed_pct for throughputs.
double windowed_rate(const std::vector<Completed>& xs, double t0, double t1,
                     double window_s);

// -------------------------------------------------------------- processes

/// CPUs the process may run on (read once, before any pinning).
const std::vector<int>& process_cpus();
/// Pins the calling thread to the slot-th allowed CPU (no-op on one CPU);
/// the serve workload keeps daemon, client and scraper on separate CPUs.
void pin_thread(std::size_t slot);
void unpin_thread();

double self_peak_rss_mb();
double proc_peak_rss_mb(pid_t pid);
double proc_cpu_s(pid_t pid);

/// The real ingest daemon as a child process on Unix domain sockets.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& tag);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const ptrack::net::Endpoint& ingest() const { return ingest_; }
  [[nodiscard]] const ptrack::net::Endpoint& admin() const { return admin_; }
  [[nodiscard]] pid_t pid() const { return pid_; }
  /// SIGTERM and wait; returns true on a clean exit.
  bool stop();

 private:
  ptrack::net::Endpoint ingest_;
  ptrack::net::Endpoint admin_;
  pid_t pid_ = -1;
};

/// Kills and reaps a running daemon at once (the run watchdog's exit path).
void kill_daemon_now();

/// Names the phase the run is in (a string literal), so the watchdog can
/// say which one never completed.
void set_phase(const char* name);
const char* current_phase();

/// Parsed `/metrics.json` of the daemon (counters and histogram maxima).
struct DaemonMetrics {
  bool ok = false;
  std::map<std::string, double> counters;
  double max_queue_depth_bytes = 0.0;
};
DaemonMetrics scrape_metrics_json(const ptrack::net::Endpoint& admin);

// ------------------------------------------------------------------ inputs

/// One synthesized recording with its ground truth.
struct Recording {
  ptrack::imu::Trace trace;
  std::size_t true_steps = 0;
  double true_distance = 0.0;
};

/// `count` recordings of `seconds` each: a fixed cohort of users, seeded
/// activity mix (walking, stepping, mixed gait, interference) with faults
/// injected into every fourth recording.
std::vector<Recording> make_recordings(std::uint64_t seed, std::size_t count,
                                       double seconds);

struct Accuracy {
  double step_error = 0.0;
  double distance_error = 0.0;
};
/// Mean relative step and distance error of per-recording results.
Accuracy accuracy(const std::vector<Recording>& recs,
                  const std::vector<std::size_t>& steps,
                  const std::vector<double>& distance);

bool same_events(std::span<const ptrack::core::StepEvent> a,
                 std::span<const ptrack::core::StepEvent> b);
/// Flips the low bit of one stride so an oracle comparison must fail.
void perturb_event(std::vector<ptrack::core::StepEvent>& events);

// ------------------------------------------------------------------ tracer

/// Benchmark-side spans: kept in memory, written at the end as Chrome
/// trace_event JSON. Names follow `ptrack.<layer>.<what>`; self time of a
/// span is its duration minus its children and any time credited to other
/// layers with credit().
namespace tracer {
void set_enabled(bool on);
bool enabled();
void begin(const char* name);
void end();
/// Moves `seconds` of the open span's self time to `layer`.
void credit(const char* layer, double seconds);
/// Self seconds per layer since the last reset (root spans of layer
/// "bench" count as unattributed).
std::map<std::string, double> self_seconds();
double root_seconds();
std::size_t span_count();
void write_chrome(const std::string& path);

struct Span {
  explicit Span(const char* name) : on_(enabled()) {
    if (on_) begin(name);
  }
  ~Span() {
    if (on_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};
}  // namespace tracer

/// Reports trace.self_*_frac and trace.unattributed_frac from the spans
/// recorded so far (call right after a workload's traced pass).
void report_trace_split(Report& rep);
/// Writes the Chrome trace and validates it with obs_check --trace.
void write_trace(const Options& opt, const std::string& path, Report& rep);

// --------------------------------------------------------------- workloads

void run_serve_uds(const Options& opt, Report& rep);
void run_batch_cohort(const Options& opt, Report& rep);
void run_fleet_mixed(const Options& opt, Report& rep);

/// In-process layer probes over a workload's recordings (traced runs):
/// imu, core, dsp, net (in-process), obs and runtime batch metrics.
void run_layer_probes(const Options& opt, const std::vector<Recording>& recs,
                      Report& rep);

/// Phases the traced runs share across workloads.
struct ServeFigures {
  double ingest_ksps = 0.0;
  Timed event_latency_us;
  std::vector<double> confirm_delay_s;
  std::vector<double> gen_lag_us;
  double backlog_slope_ksps = 0.0;
  std::vector<double> scrape_ms;
  std::uint64_t failed_scrapes = 0;
  double daemon_cpu_s = 0.0;
  double daemon_samples = 0.0;
  double daemon_frames = 0.0;
  double daemon_peak_rss_mb = 0.0;
  DaemonMetrics final_metrics;
};
struct ServePlan {
  double saturation_s = 0.0;
  double open_loop_s = 0.0;
  double rate_ksps = 0.0;
};
/// Runs the serve engine against a started daemon over `recs`.
ServeFigures serve_engine(const Options& opt,
                          const std::vector<Recording>& recs, Daemon& daemon,
                          const ServePlan& plan, Report& rep);

struct FleetFigures {
  Timed hop_latency_us;
  std::vector<double> queue_wait_us;
  std::vector<double> exec_us;
  std::vector<double> gen_lag_us;
  std::vector<double> confirm_delay_s;
  double backlog_slope_ksps = 0.0;
  double batch_ksps = 0.0;
  double busy_frac = 0.0;
  std::uint64_t steals = 0, parks = 0, wakeups = 0, spills = 0;
  std::vector<std::size_t> steps;     ///< per fleet recording
  std::vector<double> distance;
};
/// Runs `streams` HopJob streams open-loop (plus a dispatch-only batch lane
/// when `batch` is non-empty) for `seconds`.
FleetFigures fleet_engine(const Options& opt,
                          const std::vector<Recording>& recs,
                          std::size_t streams, double hop_rate,
                          double seconds, const std::vector<Recording>& batch,
                          Report& rep);

/// Daemon-side per-layer metrics from an untraced and a traced serve pass
/// (reads net.session_us_per_frame from the probes already reported).
void report_daemon_layers(const ServeFigures& plain, const ServeFigures& traced,
                          bool open_loop, Report& rep);
/// A short serve pass on a fresh daemon over this workload's recordings.
void probe_daemon(const Options& opt, const std::vector<Recording>& recs,
                  bool open_loop, Report& rep);
/// A short fleet pass (64 streams, batch lane) over this workload's
/// recordings, for the runtime layer metrics.
void probe_runtime(const Options& opt, const std::vector<Recording>& recs,
                   Report& rep);

}  // namespace e2e
