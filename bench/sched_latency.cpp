// Scheduler latency benchmark: streaming hop latency with and without a
// saturating batch job on the same scheduler — the head-of-line-blocking
// regression net behind the two-lane design (DESIGN.md §18).
//
// Method: a pool of HopJob streams is driven from the main thread. Each
// measurement pushes one chunk of samples (several hops' worth) into a
// stream's mailbox and times push -> wait_idle, i.e. the full
// submit / queue-wait / execute / completion-notify path through the
// scheduler's latency lane. The distribution is taken twice:
//
//   uncontended  workers are otherwise idle (parked between chunks);
//   contended    a background thread loops BatchRunner::run over a batch
//                of short synthetic traces on the SAME scheduler
//                (dispatch-only, so the load lives entirely on the
//                throughput lane and the workers stay 100% busy).
//
// The claimer design bounds what contention may add: a hop waits for at
// most the batch trace currently executing, never for the queue behind
// it. The gate checks exactly that bound:
//
//   contended hop p99 <= 2 x uncontended hop p99
//
// Flags:
//   --reduced          fewer streams/rounds (the CI smoke configuration)
//   --gate             fail (exit 1) unless contended p99 <= 2x uncontended
//   --workers N        scheduler workers (default: the CPUs this process
//                      may run on)
//   --json PATH        write {"bench":"sched_latency","host":{...},
//                      "metrics":{...}} (also via the PTRACK_BENCH_JSON
//                      environment variable); "host" is the machine block
//                      (bench::write_host) with the scheduler's workers
//   --metrics-out PATH write the ptrack.metrics.v1 obs snapshot for
//                      `obs_check --metrics PATH --sched`

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "core/hop_job.hpp"
#include "core/streaming.hpp"
#include "obs/export.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/hop_executor.hpp"
#include "runtime/scheduler.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

struct PhaseResult {
  std::string name;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  std::size_t samples = 0;
};

PhaseResult summarize(const std::string& name, std::vector<double> lat_us) {
  PhaseResult r;
  r.name = name;
  r.samples = lat_us.size();
  double sum = 0.0;
  for (const double us : lat_us) sum += us;
  r.mean_us =
      lat_us.empty() ? 0.0 : sum / static_cast<double>(lat_us.size());
  if (!lat_us.empty()) {
    r.p50_us = stats::percentile(lat_us, 50.0);
    r.p90_us = stats::percentile(lat_us, 90.0);
    r.p99_us = stats::percentile(lat_us, 99.0);
  }
  return r;
}

/// One live stream: a HopJob plus its replay cursor into the shared trace.
struct Stream {
  std::unique_ptr<core::HopJob> job;
  std::size_t cursor = 0;
};

/// Pushes the next `chunk` samples of `trace` into the stream and blocks
/// until the hops they trigger have executed; returns the wall time in us.
double measure_chunk(Stream& s, const imu::Trace& trace, std::size_t chunk) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const std::size_t end = std::min(s.cursor + chunk, trace.size());
  for (; s.cursor < end; ++s.cursor) s.job->push(trace[s.cursor]);
  s.job->wait_idle();
  return 1e6 *
         std::chrono::duration<double>(clock::now() - t0).count();
}

/// Runs one measurement phase: `rounds` chunks per stream, round-robin
/// across streams. The pause between measurements models a live stream's
/// hop cadence — and hands the throughput lane a window in which batch
/// work actually executes, so contended-phase hops genuinely land
/// mid-batch-item instead of monopolizing the workers.
PhaseResult run_phase(const std::string& name, std::vector<Stream>& streams,
                      const imu::Trace& trace, std::size_t chunk,
                      std::size_t rounds, std::size_t pause_us) {
  std::vector<double> lat_us;
  lat_us.reserve(rounds * streams.size());
  for (std::size_t r = 0; r < rounds; ++r) {
    for (Stream& s : streams) {
      lat_us.push_back(measure_chunk(s, trace, chunk));
      std::this_thread::sleep_for(std::chrono::microseconds(pause_us));
    }
  }
  return summarize(name, std::move(lat_us));
}

/// Best of `repeats` passes by p99 — the same noise-shedding idiom as
/// micro_streaming's best-of-repeats: an OS-level stall (this box shares
/// its cores) lands in one repeat, not all of them, while real queueing
/// shows up in every pass.
PhaseResult run_phase_best(const std::string& name,
                           std::vector<Stream>& streams,
                           const imu::Trace& trace, std::size_t chunk,
                           std::size_t rounds, std::size_t pause_us,
                           std::size_t repeats) {
  PhaseResult best;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    PhaseResult r = run_phase(name, streams, trace, chunk, rounds, pause_us);
    if (rep == 0 || r.p99_us < best.p99_us) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    cli::Args args(
        argc, argv,
        {{"reduced", "fewer streams and rounds (CI smoke)", "", true},
         {"gate",
          "fail unless contended hop p99 <= 2x uncontended hop p99",
          "", true},
         {"workers", "scheduler worker threads (default: nproc)",
          std::to_string(bench::available_cpus()), false},
         {"json", "output JSON path (overrides PTRACK_BENCH_JSON)", "",
          false},
         {"metrics-out",
          "write the obs metrics snapshot (ptrack.metrics.v1) here for "
          "obs_check --sched",
          "", false}});
    if (args.help_requested()) {
      std::cout << args.usage("sched_latency");
      return 0;
    }
    const bool reduced = args.get_bool("reduced");
    const bool gate = args.get_bool("gate");
    const auto workers =
        static_cast<std::size_t>(args.get_int("workers"));
    if (workers < 1) throw Error("sched_latency: --workers >= 1");

    const std::size_t n_streams = reduced ? 4 : 8;
    const std::size_t rounds = reduced ? 12 : 20;
    const std::size_t repeats = 3;
    // One chunk = 96 s of samples = 48 hops at the 2 s default hop: a
    // ~5 ms execution, large enough that hop work — not wake/notify fixed
    // costs or a millisecond-scale OS stall on this shared box — dominates
    // the measurement, and many times the cost of one batch trace, so the
    // one-item residual bound is visible in the ratio rather than lost in
    // noise.
    const std::size_t chunk = 9600;
    const double warm_s = 20.0;
    const double batch_trace_s = 4.0;
    const std::size_t batch_traces = 32;

    // Shared replay trace, long enough for warm-up plus both phases.
    const double fs = 100.0;
    const double trace_s =
        warm_s +
        static_cast<double>(2 * repeats * rounds * chunk) / fs + 10.0;
    Rng rng(bench::kBenchSeed ^ 0x5c4ed);
    const auto user = bench::make_users(1).front();
    const imu::Trace trace =
        synth::synthesize(synth::Scenario::pure_walking(trace_s), user,
                          bench::standard_options(), rng)
            .trace;
    // Short traces for the saturating batch load: each claimer execution
    // is one trace, so their length sets the residual a contended hop can
    // be stuck behind.
    Rng batch_rng(bench::kBenchSeed ^ 0xba7c4);
    std::vector<imu::Trace> batch_items;
    batch_items.reserve(batch_traces);
    for (std::size_t i = 0; i < batch_traces; ++i) {
      batch_items.push_back(
          synth::synthesize(synth::Scenario::pure_walking(batch_trace_s),
                            user, bench::standard_options(), batch_rng)
              .trace);
    }

    runtime::Scheduler sched({.workers = workers});
    runtime::SchedulerHopExecutor exec(sched);
    std::vector<Stream> streams;
    streams.reserve(n_streams);
    for (std::size_t i = 0; i < n_streams; ++i) {
      Stream s;
      s.job = std::make_unique<core::HopJob>(exec, /*stream_id=*/i, fs);
      streams.push_back(std::move(s));
    }

    // Warm-up: size every mailbox/ring/tracker buffer and register every
    // metric handle before anything is timed.
    for (Stream& s : streams) {
      measure_chunk(s, trace, static_cast<std::size_t>(warm_s * fs));
    }

    // Identical cadence in both phases so wake-from-park costs cancel in
    // the ratio.
    const std::size_t pause_us = 500;
    const PhaseResult uncontended = run_phase_best(
        "uncontended", streams, trace, chunk, rounds, pause_us, repeats);

    // Saturating batch load: a background thread loops positional batch
    // runs on this scheduler's throughput lane. Dispatch-only, so the
    // load is all claimer tasks — the shape the lane priority defends
    // against — and the loop thread itself stays off the CPU.
    std::atomic<bool> stop_batch{false};
    std::atomic<std::uint64_t> batch_runs{0};
    runtime::BatchRunner runner(
        {}, {.scheduler = &sched, .caller_participates = false});
    std::thread batcher([&] {
      while (!stop_batch.load(std::memory_order_relaxed)) {
        const auto results = runner.run(batch_items);
        batch_runs.fetch_add(results.size(), std::memory_order_relaxed);
      }
    });
    // Only measure once the load is demonstrably live.
    while (batch_runs.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    using clock = std::chrono::steady_clock;
    const auto c0 = clock::now();
    const PhaseResult contended = run_phase_best(
        "contended", streams, trace, chunk, rounds, pause_us, repeats);
    const double contended_s =
        std::chrono::duration<double>(clock::now() - c0).count();
    stop_batch.store(true, std::memory_order_relaxed);
    batcher.join();
    const double batch_traces_per_s =
        static_cast<double>(batch_runs.load()) / contended_s;

    for (Stream& s : streams) s.job->wait_idle();
    const auto stats = sched.stats();

    const bool latency_gate_ok =
        contended.p99_us <= 2.0 * uncontended.p99_us;

    std::printf(
        "sched_latency: %zu workers, %zu streams, %zu-sample chunks, %zu "
        "rounds/phase\n",
        workers, n_streams, chunk, rounds);
    std::printf("  %-12s %10s %10s %10s %10s %8s\n", "phase", "p50 us",
                "p90 us", "p99 us", "mean us", "n");
    for (const PhaseResult* r : {&uncontended, &contended}) {
      std::printf("  %-12s %10.1f %10.1f %10.1f %10.1f %8zu\n",
                  r->name.c_str(), r->p50_us, r->p90_us, r->p99_us,
                  r->mean_us, r->samples);
    }
    std::printf(
        "  batch load: %.1f traces/s sustained during the contended "
        "phase\n",
        batch_traces_per_s);
    std::printf(
        "  sched: %llu hops, %llu batch tasks, %llu parks, %llu wakeups\n",
        static_cast<unsigned long long>(stats.submitted_latency),
        static_cast<unsigned long long>(stats.submitted_throughput),
        static_cast<unsigned long long>(stats.parks),
        static_cast<unsigned long long>(stats.wakeups));
    std::printf("  contended p99 vs 2x uncontended p99: %.1f us vs %.1f us "
                "(%s)\n",
                contended.p99_us, 2.0 * uncontended.p99_us,
                latency_gate_ok ? "ok" : "VIOLATION");

    std::string path = "BENCH_sched.json";
    if (args.has("json")) {
      path = args.get_string("json");
    } else if (const char* env = std::getenv("PTRACK_BENCH_JSON")) {
      path = env;
    }
    {
      std::ofstream out(path);
      if (!out) throw Error("sched_latency: cannot open " + path);
      json::Writer w(out);
      w.begin_object();
      w.key("bench").value(std::string("sched_latency"));
      bench::write_host(w, workers);
      w.key("metrics").begin_object();
      w.key("reduced").value(reduced);
      w.key("workers").value(workers);
      w.key("streams").value(n_streams);
      w.key("chunk_samples").value(chunk);
      w.key("rounds").value(rounds);
      for (const PhaseResult* r : {&uncontended, &contended}) {
        w.key(r->name + "_hop_p50_us").value(r->p50_us);
        w.key(r->name + "_hop_p90_us").value(r->p90_us);
        w.key(r->name + "_hop_p99_us").value(r->p99_us);
        w.key(r->name + "_hop_mean_us").value(r->mean_us);
      }
      w.key("batch_traces_per_s").value(batch_traces_per_s);
      w.key("sched_parks").value(stats.parks);
      w.key("sched_wakeups").value(stats.wakeups);
      w.key("latency_gate_ok").value(latency_gate_ok);
      w.end_object();
      w.end_object();
      out << '\n';
    }
    std::printf("wrote %s\n", path.c_str());

    if (args.has("metrics-out")) {
      const std::string mpath = args.get_string("metrics-out");
      std::ofstream mout(mpath);
      if (!mout) throw Error("sched_latency: cannot open " + mpath);
      obs::write_metrics_document(mout);
      std::printf("wrote %s\n", mpath.c_str());
    }

    if (gate && !latency_gate_ok) {
      std::printf("SCHED GATE VIOLATION\n");
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "sched_latency: " << e.what() << "\n";
    return 1;
  }
}
