// fleet_mixed: about a thousand core::HopJob streams hop on the Scheduler's
// latency lane on an open-loop schedule while a dispatch-only BatchRunner
// keeps the throughput lane busy on the same scheduler.
#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "core/hop_job.hpp"
#include "core/ptrack.hpp"
#include "core/streaming.hpp"
#include "obs/export.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/scheduler.hpp"

namespace e2e {

namespace core = ptrack::core;
namespace runtime = ptrack::runtime;

namespace {

constexpr double kHopS = 1.0;

struct Stream {
  std::unique_ptr<core::HopJob> job;
  std::size_t rec = 0;
  std::atomic<std::uint64_t> submit_ns{0};
  std::mutex mu;
  std::deque<std::pair<double, std::uint64_t>> pending;  ///< (due s, pushed ns)
};

struct alignas(64) ExecutorLog {
  std::vector<double> wait_us;
  std::vector<double> exec_us;
  Timed hop_latency_us;
};

/// Latency-lane executor that timestamps submit, start and end of every
/// hop task from benchmark code.
class TimedExecutor final : public core::HopExecutor {
 public:
  TimedExecutor(runtime::Scheduler& sched, std::vector<Stream>& streams,
                std::vector<ExecutorLog>& logs,
                std::atomic<std::uint64_t>& done)
      : sched_(sched), streams_(streams), logs_(logs), done_(done) {}

  void submit(core::HopJob& job, std::uint64_t affinity) override {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    streams_[job.stream_id()].submit_ns.store(now_ns(),
                                              std::memory_order_relaxed);
    runtime::Task t;
    t.fn = &TimedExecutor::trampoline;
    t.ctx = this;
    t.arg = job.stream_id();
    sched_.submit(runtime::Lane::kLatency, t, affinity);
  }

  /// Waits until every submitted task has finished its bookkeeping too
  /// (HopJob::wait_idle returns once the hop itself is done).
  void quiesce() const {
    while (in_flight_.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
  }

 private:
  static void trampoline(void* ctx, std::size_t executor, std::uint64_t id) {
    static_cast<TimedExecutor*>(ctx)->run(executor, id);
  }

  void run(std::size_t executor, std::uint64_t id) {
    Stream& s = streams_[id];
    ExecutorLog& log = logs_[executor];
    tracer::Span task("ptrack.runtime.hop_task");
    const std::uint64_t start = now_ns();
    const std::uint64_t submitted =
        s.submit_ns.load(std::memory_order_relaxed);
    log.wait_us.push_back(static_cast<double>(start - submitted) * 1e-3);
    {
      tracer::Span hop("ptrack.core.hop");
      s.job->run_scheduled(executor);
    }
    const std::uint64_t end = now_ns();
    log.exec_us.push_back(static_cast<double>(end - start) * 1e-3);
    const double end_s = static_cast<double>(end) * 1e-9;
    std::uint64_t n = 0;
    {
      std::lock_guard<std::mutex> lk(s.mu);
      while (!s.pending.empty() && s.pending.front().second <= end) {
        log.hop_latency_us.emplace_back(
            end_s, (end_s - s.pending.front().first) * 1e6);
        s.pending.pop_front();
        ++n;
      }
    }
    done_.fetch_add(n, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_release);
  }

  runtime::Scheduler& sched_;
  std::vector<Stream>& streams_;
  std::vector<ExecutorLog>& logs_;
  std::atomic<std::uint64_t>& done_;
  std::atomic<std::int64_t> in_flight_{0};
};

/// Waits for every hop (and its bookkeeping) on every exit path, so no
/// queued task outlives the streams or the executor it reports to.
class HopsQuiesced {
 public:
  HopsQuiesced(std::vector<Stream>& streams, const TimedExecutor& exec)
      : streams_(streams), exec_(exec) {}
  ~HopsQuiesced() { (void)wait(); }
  HopsQuiesced(const HopsQuiesced&) = delete;
  HopsQuiesced& operator=(const HopsQuiesced&) = delete;
  /// Returns how many streams reported a hop error.
  std::size_t wait() {
    std::size_t errors = 0;
    for (auto& s : streams_) {
      if (!s.job) continue;
      try {
        s.job->wait_idle();
      } catch (const std::exception&) {
        ++errors;
      }
    }
    exec_.quiesce();
    return errors;
  }

 private:
  std::vector<Stream>& streams_;
  const TimedExecutor& exec_;
};

/// Stops and joins the batch-lane thread on every exit path.
class BatchLane {
 public:
  BatchLane(std::atomic<bool>& stop, std::thread& thread)
      : stop_(stop), thread_(thread) {}
  ~BatchLane() { stop(); }
  BatchLane(const BatchLane&) = delete;
  BatchLane& operator=(const BatchLane&) = delete;
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool>& stop_;
  std::thread& thread_;
};

struct Oracle {
  std::vector<core::StepEvent> events;  ///< polled, then drained
  std::vector<double> confirm_delay_s;
};

Oracle direct_tracker(const std::vector<ptrack::imu::Trace>& chunks,
                      std::size_t hops) {
  Oracle o;
  core::StreamingConfig cfg;
  cfg.hop_s = kHopS;
  const double fs = chunks.front().fs();
  core::StreamingTracker t(fs, cfg);
  std::size_t pushed = 0;
  for (std::size_t k = 0; k < hops; ++k) {
    for (const auto& x : chunks[k].samples()) t.push(x);
    pushed += chunks[k].size();
    const std::size_t before = o.events.size();
    t.poll_into(o.events);
    const double frontier = static_cast<double>(pushed - 1) / fs;
    for (std::size_t i = before; i < o.events.size(); ++i) {
      o.confirm_delay_s.push_back(frontier - o.events[i].t);
    }
  }
  t.drain_into(o.events);
  return o;
}

}  // namespace

FleetFigures fleet_engine(const Options& opt,
                          const std::vector<Recording>& recs,
                          std::size_t n_streams, double hop_rate,
                          double seconds, const std::vector<Recording>& batch,
                          Report& rep) {
  FleetFigures fig;
  const double fs = recs.front().trace.fs();
  const std::size_t hop = static_cast<std::size_t>(kHopS * fs);

  const core::PTrack pipeline;
  std::vector<core::TrackResult> batch_oracle;
  std::vector<ptrack::imu::Trace> batch_traces;
  std::size_t batch_samples = 0;
  for (const auto& r : batch) {
    batch_oracle.push_back(pipeline.process(r.trace));
    batch_traces.push_back(r.trace);
    batch_samples += r.trace.size();
  }

  runtime::SchedulerOptions so;
  const unsigned reserved = batch.empty() ? 1 : 2;  // generator (+ batch)
  so.workers = opt.nproc > reserved ? opt.nproc - reserved : 1;
  runtime::Scheduler sched(so);
  std::vector<Stream> streams(n_streams);
  std::vector<ExecutorLog> logs(so.workers + 1);
  std::atomic<std::uint64_t> hops_done{0};
  TimedExecutor exec(sched, streams, logs, hops_done);
  core::StreamingConfig cfg;
  cfg.hop_s = kHopS;
  for (std::size_t s = 0; s < n_streams; ++s) {
    streams[s].rec = s % recs.size();
    streams[s].job = std::make_unique<core::HopJob>(exec, s, fs, cfg);
  }
  HopsQuiesced quiesced(streams, exec);
  // Hop chunks, shared by every stream on the same recording.
  std::vector<std::vector<ptrack::imu::Trace>> chunks(recs.size());
  for (std::size_t r = 0; r < recs.size(); ++r) {
    const auto& xs = recs[r].trace.samples();
    for (std::size_t pos = 0; pos < xs.size(); pos += hop) {
      const std::size_t end = std::min(xs.size(), pos + hop);
      const auto first = xs.begin() + static_cast<std::ptrdiff_t>(pos);
      const auto last = xs.begin() + static_cast<std::ptrdiff_t>(end);
      chunks[r].emplace_back(fs, std::vector<ptrack::imu::Sample>(first, last));
    }
  }
  std::size_t hops_per_stream = chunks.front().size();
  for (const auto& c : chunks) {
    hops_per_stream = std::min(hops_per_stream, c.size());
  }
  const double period = static_cast<double>(n_streams) / hop_rate;
  const std::size_t hops =
      std::min(hops_per_stream,
               static_cast<std::size_t>(std::max(1.0, seconds / period)));
  // Oracles: a directly driven tracker per distinct recording, fed the
  // same hop chunks the streams receive.
  std::vector<Oracle> oracle;
  for (const auto& c : chunks) oracle.push_back(direct_tracker(c, hops));
  if (opt.perturb) perturb_event(oracle[0].events);

  // Batch lane: repeated dispatch-only batches on the throughput lane.
  std::atomic<bool> stop_batch{false};
  std::vector<Completed> batch_done;
  std::uint64_t batch_attempted = 0;
  std::vector<std::string> batch_failures;
  std::thread batch_thread;
  BatchLane batch_lane(stop_batch, batch_thread);  // after what the lane uses
  if (!batch.empty()) {
    batch_thread = std::thread([&] {
      try {
        runtime::BatchOptions bo;
        bo.scheduler = &sched;
        bo.caller_participates = false;
        runtime::BatchRunner runner(core::PTrackConfig{}, bo);
        double started = now_s();
        while (!stop_batch.load()) {
          const auto results = runner.run(batch_traces);
          for (std::size_t i = 0; i < results.size(); ++i) {
            ++batch_attempted;
            if (!results[i].has_value() ||
                results[i].value().steps != batch_oracle[i].steps ||
                !same_events(results[i].value().events,
                             batch_oracle[i].events)) {
              batch_failures.push_back("batch-lane result differs from "
                                       "single-thread PTrack::process");
            }
          }
          const double finished = now_s();
          batch_done.push_back(
              {started, finished, static_cast<double>(batch_samples)});
          started = finished;
        }
      } catch (const std::exception& e) {
        ++batch_attempted;
        batch_failures.push_back(std::string("batch lane: ") + e.what());
      }
    });
  }

  // Open-loop generator: stream s, hop k is due at t0 + (k + s/N) * period.
  set_phase("fleet: open-loop hops beside the batch lane");
  const ptrack::runtime::SchedulerStats st0 = sched.stats();
  const auto snap0 = ptrack::obs::Snapshot::take();
  const double t0 = now_s() + 0.05;
  Timed backlog;
  double next_backlog = t0;
  std::uint64_t pushed = 0;
  for (std::size_t k = 0; k < hops; ++k) {
    for (std::size_t s = 0; s < n_streams; ++s) {
      const double due =
          t0 + (static_cast<double>(k) +
                static_cast<double>(s) / static_cast<double>(n_streams)) *
                   period;
      double now = now_s();
      if (due - now > 100e-6) {
        sleep_until_s(due - 50e-6);
      }
      while ((now = now_s()) < due) {
      }
      if (now >= next_backlog) {
        backlog.emplace_back(now - t0,
                             static_cast<double>(pushed - hops_done.load()));
        next_backlog += 0.05;
      }
      fig.gen_lag_us.push_back((now - due) * 1e6);
      Stream& st = streams[s];
      tracer::Span g("ptrack.bench.hop_submit");
      {
        // Stamped before the push: the first run ending after it completes
        // the hop (a run cannot finish before the samples it drains).
        std::lock_guard<std::mutex> lk(st.mu);
        st.pending.emplace_back(due, now_ns());
      }
      st.job->push(chunks[st.rec][k]);
      ++pushed;
    }
  }
  const double t_gen_end = now_s();
  set_phase("fleet: waiting for the last hops");
  const std::size_t hop_errors = quiesced.wait();
  set_phase("fleet: stopping the batch lane (BatchRunner::run returns)");
  batch_lane.stop();
  set_phase("fleet: verifying streams");
  const double t_end = now_s();
  const ptrack::runtime::SchedulerStats st1 = sched.stats();
  const auto snap1 = ptrack::obs::Snapshot::take();

  // Verification: each stream's events (polled, then drained) must equal
  // the direct tracker on its recording.
  std::vector<core::StepEvent> ev;
  std::vector<bool> counted(recs.size(), false);
  fig.steps.assign(recs.size(), 0);
  fig.distance.assign(recs.size(), 0.0);
  for (std::size_t s = 0; s < n_streams; ++s) {
    Stream& st = streams[s];
    ++rep.attempted;
    ev.clear();
    try {
      st.job->poll_into(ev);
      st.job->drain_into(ev);
    } catch (const std::exception& e) {
      rep.fail(std::string("hop job failed: ") + e.what());
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(st.mu);
      if (!st.pending.empty()) rep.fail("hops that never completed");
      rep.attempted += hops;
    }
    if (!same_events(ev, oracle[st.rec].events)) {
      rep.fail("stream " + std::to_string(s) +
               " differs from a directly driven tracker");
    }
    if (!counted[st.rec]) {
      counted[st.rec] = true;
      fig.steps[st.rec] = ev.size();
      double d = 0.0;
      for (const auto& e : ev) d += e.stride;
      fig.distance[st.rec] = d;
      fig.confirm_delay_s.insert(fig.confirm_delay_s.end(),
                                 oracle[st.rec].confirm_delay_s.begin(),
                                 oracle[st.rec].confirm_delay_s.end());
    }
  }
  for (std::size_t i = 0; i < hop_errors; ++i) rep.fail("a hop threw");
  rep.attempted += batch_attempted;
  for (const auto& f : batch_failures) rep.fail(f);

  for (const auto& l : logs) {
    fig.hop_latency_us.insert(fig.hop_latency_us.end(),
                              l.hop_latency_us.begin(), l.hop_latency_us.end());
    fig.queue_wait_us.insert(fig.queue_wait_us.end(), l.wait_us.begin(),
                             l.wait_us.end());
    fig.exec_us.insert(fig.exec_us.end(), l.exec_us.begin(), l.exec_us.end());
  }
  if (backlog.size() >= 3) {
    fig.backlog_slope_ksps = slope(backlog) * static_cast<double>(hop) / 1e3;
  }
  // Throughput-lane progress while hops run: samples of completed batches
  // per second, upper quartile over one-second windows of the schedule.
  fig.batch_ksps = windowed_rate(batch_done, t0, t_gen_end, 1.0) / 1e3;
  fig.steals = st1.steals - st0.steals;
  fig.parks = st1.parks - st0.parks;
  fig.wakeups = st1.wakeups - st0.wakeups;
  fig.spills = st1.spills - st0.spills;
  // Busy time from the scheduler's own exec histograms.
  double busy_us = 0.0;
  for (const char* h : {"ptrack.runtime.sched.latency.exec_us",
                        "ptrack.runtime.sched.throughput.exec_us"}) {
    const auto a = snap0.histograms.find(h);
    const auto b = snap1.histograms.find(h);
    if (b != snap1.histograms.end()) {
      const double before =
          a != snap0.histograms.end() ? a->second.sum : 0.0;
      busy_us += b->second.sum - before;
    }
  }
  fig.busy_frac = busy_us * 1e-6 /
                  (static_cast<double>(so.workers) * (t_end - t0));
  set_phase("fleet: scheduler shutdown (joining workers)");
  return fig;
}

namespace {

struct FleetSize {
  std::size_t streams;
  std::size_t recordings;
  std::size_t batch;
  double batch_seconds;
};

FleetSize fleet_size(const Options& opt) {
  return opt.tiny ? FleetSize{64, 8, 2, 30.0}
                  : FleetSize{1000, 32, 16, 30.0};
}

void report_runtime_layers(const FleetFigures& fig, Report& rep) {
  rep.metric("runtime.latency_queue_wait_us_p50", pct(fig.queue_wait_us, 50),
             "us");
  rep.metric("runtime.latency_queue_wait_us_p99", pct(fig.queue_wait_us, 99),
             "us");
  rep.metric("runtime.latency_exec_us_p50", pct(fig.exec_us, 50), "us");
  rep.samples["queue_wait_us"] = static_cast<double>(fig.queue_wait_us.size());
  rep.metric("runtime.steals", static_cast<double>(fig.steals), "count");
  rep.metric("runtime.parks", static_cast<double>(fig.parks), "count");
  rep.metric("runtime.wakeups", static_cast<double>(fig.wakeups), "count");
  rep.metric("runtime.spills", static_cast<double>(fig.spills), "count");
  rep.metric("runtime.worker_busy_frac", fig.busy_frac, "frac");
}

}  // namespace

void probe_runtime(const Options& opt, const std::vector<Recording>& recs,
                   Report& rep) {
  // A short fleet pass over this workload's recordings: 64 streams for
  // about two seconds, with a batch lane.
  const std::vector<Recording> few(
      recs.begin(), recs.begin() + static_cast<std::ptrdiff_t>(
                                       std::min<std::size_t>(recs.size(), 4)));
  Report scratch;
  const FleetFigures fig =
      fleet_engine(opt, few, 64, 320.0, 2.0, few, scratch);
  rep.absorb(scratch, "runtime probe: ");
  report_runtime_layers(fig, rep);
}

void run_fleet_mixed(const Options& opt, Report& rep) {
  const FleetSize size = fleet_size(opt);
  const double hop_rate = opt.tiny ? 320.0 : opt.fleet_hop_rate;
  const double run_s = opt.trace ? 0.5 * opt.seconds : opt.seconds;
  // Every stream replays a whole recording within the run.
  const double period = static_cast<double>(size.streams) / hop_rate;
  const double rec_s = std::max(10.0, std::floor(run_s / period)) * kHopS;
  std::vector<double> setups;
  std::vector<Recording> recs;
  std::vector<Recording> batch;
  set_phase("fleet: set-up (synthesis)");
  for (int i = 0; i < (opt.tiny ? 1 : 5); ++i) {
    const double t = now_s();
    recs = make_recordings(opt.seed, size.recordings, rec_s);
    batch = make_recordings(opt.seed + 7777, size.batch, size.batch_seconds);
    setups.push_back(now_s() - t);
  }
  rep.metric("setup_s", pct(setups, 50), "s");

  if (!opt.trace) {
    const FleetFigures fig = fleet_engine(opt, recs, size.streams, hop_rate,
                                          run_s, batch, rep);
    rep.metric("throughput_ksps", fig.batch_ksps, "ksamples/s");
    // Per-second percentiles, lower quartile over the schedule's seconds.
    report_latency(fig.hop_latency_us, 1.0, 1000, rep);
    rep.metric("confirm_delay_p50_s", pct(fig.confirm_delay_s, 50), "s");
    const Accuracy acc = accuracy(recs, fig.steps, fig.distance);
    rep.metric("accuracy.step_error", acc.step_error, "frac");
    rep.metric("accuracy.distance_error", acc.distance_error, "frac");
    rep.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    return;
  }

  const FleetFigures plain =
      fleet_engine(opt, recs, size.streams, hop_rate, run_s, batch, rep);
  tracer::set_enabled(true);
  const FleetFigures fig =
      fleet_engine(opt, recs, size.streams, hop_rate, run_s, batch, rep);
  tracer::set_enabled(false);
  report_trace_split(rep);
  const Accuracy acc = accuracy(recs, fig.steps, fig.distance);
  rep.metric("accuracy.step_error", acc.step_error, "frac");
  rep.metric("accuracy.distance_error", acc.distance_error, "frac");
  rep.metric("trace.overhead_frac",
             windowed_pct(fig.hop_latency_us, 1.0, 50, 1000) /
                     windowed_pct(plain.hop_latency_us, 1.0, 50, 1000) -
                 1.0,
             "frac");
  report_runtime_layers(fig, rep);
  rep.metric("gen.lag_us_p99", pct(fig.gen_lag_us, 99), "us");
  rep.samples["gen_lag_us"] = static_cast<double>(fig.gen_lag_us.size());
  rep.metric("net.backlog_slope_ksps", fig.backlog_slope_ksps, "ksamples/s");
  run_layer_probes(opt, recs, rep);
  probe_daemon(opt, recs, /*open_loop=*/false, rep);
}

}  // namespace e2e
