// Streaming hot-path microbenchmark: per-hop latency and steady-state
// capacity of the incremental stage graph — the measurement behind the
// claim that a hop costs O(new samples), independent of how long the
// stream has been running.
//
// Method: one synthetic walking trace is replayed sample-by-sample through
// a core::StreamingTracker per arm: `inc` (detected SIMD ISA) and
// `inc_scalar` (scalar kernels). Every push is timed individually; a push
// is attributed to the per-hop distribution when the tracker's
// windows_processed counter advanced during it, yielding a per-hop latency
// distribution (p50/p90/p99) per arm, kept from the fastest repeat to shed
// scheduler noise.
// Steady-state streams-per-core = stream duration / total CPU time spent
// pushing — how many live 100 Hz streams one core sustains.
//
// Stream-age check: after that first pass the tracker is flushed
// (finish()) and the same trace is replayed into it again. Each hop of
// this post-flush pass takes its minimum over the repeats; the mean of
// the last third of those hops is compared with the mean of the first
// third.
//
// Hop sweep: the same trace is pushed through a fresh `inc` tracker at
// hops of 0.1, 0.2, 0.5, 1, 2 and 4 s, timed from the first push through
// finish(); the best repeat's CPU per pushed sample is reported per hop,
// with the steps and distance the stream ended with.
//
// Tracker heap: the live operator-new bytes one fresh `inc` tracker holds
// after 80 s of the trace (replayed from its start when shorter), hop 2 s,
// events drained as they come (tracker_live_kb), and the most it held
// after any push over those 80 s, warm-up included (tracker_peak_kb);
// measured after a first tracker has set up what every tracker shares
// (gravity weight tables, per-thread scratch, telemetry handles).
//
// Flags:
//   --reduced     shorter trace, fewer repeats (the CI smoke configuration)
//   --gate        fail (exit 1) unless, for the `inc` arm, the post-flush
//                 mean hop cost over the trace's last third is <= 1.5x
//                 its first third (hop cost does not grow with stream age)
//   --json PATH   write {"bench":"micro_streaming","host":{...},
//                 "metrics":{...},"historical_recompute":{...}} (also via
//                 the PTRACK_BENCH_JSON environment variable); "host" is
//                 the machine block e2e_bench prints, with workers = 1
//                 (the replay is single-threaded)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/alloc_hooks.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "core/streaming.hpp"
#include "dsp/simd.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

struct ArmResult {
  std::string name;
  double hop_p50_us = 0.0;
  double hop_p90_us = 0.0;
  double hop_p99_us = 0.0;
  double hop_mean_us = 0.0;
  double streams_per_core = 0.0;
  std::size_t steps = 0;
  double early_hop_us = 0.0;  ///< post-flush pass, first-third mean hop
  double late_hop_us = 0.0;   ///< post-flush pass, last-third mean hop
};

/// Pushes the whole trace into `stream`, timing every push. Returns the
/// durations (µs) of the pushes that ran a hop; adds all push time to
/// `total_s`.
std::vector<double> replay(core::StreamingTracker& stream,
                           const imu::Trace& trace, double& total_s) {
  using clock = std::chrono::steady_clock;
  std::vector<double> hop_us;
  std::size_t hops_seen = stream.stats().windows_processed;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto t0 = clock::now();
    stream.push(trace[i]);
    const double dt =
        std::chrono::duration<double>(clock::now() - t0).count();
    total_s += dt;
    const std::size_t hops_now = stream.stats().windows_processed;
    if (hops_now != hops_seen) {
      hops_seen = hops_now;
      hop_us.push_back(1e6 * dt);
    }
  }
  return hop_us;
}

/// Runs one tracker configuration `repeats` times: a timed first pass
/// from a fresh tracker (its per-hop distribution is kept from the fastest
/// repeat), then finish() and a timed post-flush replay (per-hop minimum
/// over repeats, reduced to first- and last-third means).
ArmResult run_arm(const std::string& name, const imu::Trace& trace,
                  const core::StreamingConfig& cfg, std::size_t repeats) {
  ArmResult best;
  double best_total = 0.0;
  std::vector<double> steady_min;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    core::StreamingTracker stream(trace.fs(), cfg);
    double total_s = 0.0;
    const std::vector<double> hop_us = replay(stream, trace, total_s);
    stream.finish();
    const std::size_t steps = stream.steps();

    double steady_total_s = 0.0;
    const std::vector<double> steady = replay(stream, trace, steady_total_s);
    if (rep == 0) {
      steady_min = steady;
    } else {
      for (std::size_t i = 0; i < steady_min.size(); ++i) {
        steady_min[i] = std::min(steady_min[i], steady[i]);
      }
    }

    if (rep == 0 || total_s < best_total) {
      best_total = total_s;
      best.name = name;
      if (!hop_us.empty()) {
        best.hop_mean_us = stats::mean(hop_us);
        best.hop_p50_us = stats::percentile(hop_us, 50.0);
        best.hop_p90_us = stats::percentile(hop_us, 90.0);
        best.hop_p99_us = stats::percentile(hop_us, 99.0);
      }
      best.streams_per_core = trace.duration() / total_s;
      best.steps = steps;
    }
  }
  const std::size_t third = steady_min.size() / 3;
  if (third > 0) {
    const std::span<const double> hops(steady_min);
    best.early_hop_us = stats::mean(hops.first(third));
    best.late_hop_us = stats::mean(hops.last(third));
  }
  return best;
}

struct SweepRow {
  double hop_s = 0.0;
  double ns_per_sample = 0.0;
  std::size_t steps = 0;
  double distance_m = 0.0;
};

/// Push-to-finish cost per sample at one hop, best of `repeats`.
SweepRow sweep_hop(const imu::Trace& trace, core::StreamingConfig cfg,
                   double hop_s, std::size_t repeats) {
  using clock = std::chrono::steady_clock;
  cfg.hop_s = hop_s;
  SweepRow row;
  row.hop_s = hop_s;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    core::StreamingTracker stream(trace.fs(), cfg);
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < trace.size(); ++i) stream.push(trace[i]);
    stream.finish();
    const double ns =
        std::chrono::duration<double, std::nano>(clock::now() - t0).count() /
        static_cast<double>(trace.size());
    if (rep == 0 || ns < row.ns_per_sample) row.ns_per_sample = ns;
    row.steps = stream.steps();
    row.distance_m = stream.distance();
  }
  return row;
}

struct TrackerHeap {
  double live_kb = 0.0;  ///< after 80 s
  double peak_kb = 0.0;  ///< the most after any push
};

/// Heap (KB) of one tracker over 80 s of `trace` (see the header).
TrackerHeap tracker_heap(const imu::Trace& trace,
                         const core::StreamingConfig& cfg) {
  const auto samples = static_cast<std::size_t>(80.0 * trace.fs());
  std::vector<core::StepEvent> sink;
  sink.reserve(4096);
  double peak = 0.0;
  const auto run = [&](double before) {
    auto stream = std::make_unique<core::StreamingTracker>(trace.fs(), cfg);
    for (std::size_t i = 0; i < samples; ++i) {
      stream->push(trace[i % trace.size()]);
      stream->poll_into(sink);
      sink.clear();
      peak = std::max(peak, static_cast<double>(alloc::live_bytes()) - before);
    }
    return stream;
  };
  run(0.0).reset();
  peak = 0.0;
  const auto before = static_cast<double>(alloc::live_bytes());
  const auto stream = run(before);
  return {(static_cast<double>(alloc::live_bytes()) - before) / 1024.0,
          peak / 1024.0};
}

/// Last recorded figures of the full-window recompute streaming mode
/// (180 s walking trace, hop 2 s, guard = window / 4, AVX2), kept for
/// comparison after that mode was removed. Not re-measured.
void write_historical_recompute(json::Writer& w) {
  struct Row {
    const char* arm;
    double p50, p90, p99, mean, streams_per_core;
    std::size_t steps;
  };
  const Row rows[] = {
      {"rec_w10", 172.213, 263.041, 419.277, 193.6926517, 9838.136421, 357},
      {"rec_w20", 350.016, 527.584, 637.847, 380.744382, 5157.387862, 351},
      {"rec_w40", 711.267, 934.505, 1138.077, 712.9548539, 2790.297299, 352},
  };
  w.key("historical_recompute").begin_object();
  w.key("note").value(std::string(
      "full-window recompute mode (removed); last recorded figures, not "
      "re-measured"));
  for (const Row& r : rows) {
    const std::string a = r.arm;
    w.key(a + "_hop_p50_us").value(r.p50);
    w.key(a + "_hop_p90_us").value(r.p90);
    w.key(a + "_hop_p99_us").value(r.p99);
    w.key(a + "_hop_mean_us").value(r.mean);
    w.key(a + "_streams_per_core").value(r.streams_per_core);
    w.key(a + "_steps").value(r.steps);
  }
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    cli::Args args(
        argc, argv,
        {{"reduced", "shorter trace and fewer repeats (CI smoke)", "", true},
         {"gate",
          "fail unless the post-flush hop cost over the trace's last third "
          "is <= 1.5x its first third",
          "", true},
         {"json", "output JSON path (overrides PTRACK_BENCH_JSON)", "",
          false}});
    if (args.help_requested()) {
      std::cout << args.usage("micro_streaming");
      return 0;
    }
    const bool reduced = args.get_bool("reduced");
    const bool gate = args.get_bool("gate");
    const double seconds = reduced ? 60.0 : 180.0;
    const std::size_t repeats = reduced ? 3 : 5;

    Rng rng(bench::kBenchSeed ^ 0x57e);
    const auto user = bench::make_users(1).front();
    const imu::Trace trace =
        synth::synthesize(synth::Scenario::pure_walking(seconds), user,
                          bench::standard_options(), rng)
            .trace;

    core::StreamingConfig cfg;
    cfg.pipeline.stride.profile = {user.arm_length, user.leg_length, 2.0};
    cfg.hop_s = 2.0;
    // The detected SIMD ISA, then the scalar kernels: the record of what
    // the vector kernels buy on the hot path.
    std::vector<ArmResult> arms;
    arms.push_back(run_arm("inc", trace, cfg, repeats));
    dsp::simd::force_isa(dsp::simd::Isa::kScalar);
    arms.push_back(run_arm("inc_scalar", trace, cfg, repeats));
    dsp::simd::force_isa(dsp::simd::detected());
    std::vector<SweepRow> sweep;
    for (const double hop : {0.1, 0.2, 0.5, 1.0, 2.0, 4.0}) {
      sweep.push_back(sweep_hop(trace, cfg, hop, repeats));
    }
    const TrackerHeap heap = tracker_heap(trace, cfg);

    std::printf(
        "micro_streaming: %.0f s walking trace @ %.0f Hz, hop 2 s, best of "
        "%zu repeats\n",
        seconds, trace.fs(), repeats);
    std::printf("  %-10s %10s %10s %10s %10s %14s %6s %12s %12s\n", "arm",
                "p50 us", "p90 us", "p99 us", "mean us", "streams/core",
                "steps", "early us", "late us");
    for (const ArmResult& a : arms) {
      std::printf(
          "  %-10s %10.1f %10.1f %10.1f %10.1f %14.1f %6zu %12.1f %12.1f\n",
          a.name.c_str(), a.hop_p50_us, a.hop_p90_us, a.hop_p99_us,
          a.hop_mean_us, a.streams_per_core, a.steps, a.early_hop_us,
          a.late_hop_us);
    }

    std::printf("  hop sweep (push to finish, best of %zu):\n", repeats);
    std::printf("  %8s %14s %6s %12s\n", "hop s", "ns/sample", "steps",
                "distance m");
    for (const SweepRow& r : sweep) {
      std::printf("  %8.1f %14.1f %6zu %12.2f\n", r.hop_s, r.ns_per_sample,
                  r.steps, r.distance_m);
    }
    std::printf("  tracker live heap after 80 s: %.1f KB (peak %.1f KB)\n",
                heap.live_kb, heap.peak_kb);

    const ArmResult& inc = arms[0];
    const ArmResult& inc_scalar = arms[1];
    const bool hop_cost_flat = inc.late_hop_us <= 1.5 * inc.early_hop_us;
    std::printf(
        "  inc post-flush mean hop, last third vs 1.5 * first third: %.1f us "
        "vs %.1f us (%s)\n",
        inc.late_hop_us, 1.5 * inc.early_hop_us,
        hop_cost_flat ? "ok" : "VIOLATION");
    const double simd_speedup =
        inc.hop_mean_us > 0.0 ? inc_scalar.hop_mean_us / inc.hop_mean_us
                              : 0.0;
    std::printf("  simd %s: scalar %.1f us -> %.1f us (%.2fx)\n",
                dsp::simd::isa_name(dsp::simd::detected()),
                inc_scalar.hop_mean_us, inc.hop_mean_us, simd_speedup);

    std::string path = "BENCH_streaming.json";
    if (args.has("json")) {
      path = args.get_string("json");
    } else if (const char* env = std::getenv("PTRACK_BENCH_JSON")) {
      path = env;
    }
    {
      std::ofstream out(path);
      if (!out) throw Error("micro_streaming: cannot open " + path);
      json::Writer w(out);
      w.begin_object();
      w.key("bench").value(std::string("micro_streaming"));
      bench::write_host(w, 1);
      w.key("metrics").begin_object();
      w.key("reduced").value(reduced);
      w.key("trace_s").value(seconds);
      w.key("hop_s").value(2.0);
      for (const ArmResult& a : arms) {
        w.key(a.name + "_hop_p50_us").value(a.hop_p50_us);
        w.key(a.name + "_hop_p90_us").value(a.hop_p90_us);
        w.key(a.name + "_hop_p99_us").value(a.hop_p99_us);
        w.key(a.name + "_hop_mean_us").value(a.hop_mean_us);
        w.key(a.name + "_streams_per_core").value(a.streams_per_core);
        w.key(a.name + "_steps").value(a.steps);
        w.key(a.name + "_steady_early_hop_us").value(a.early_hop_us);
        w.key(a.name + "_steady_late_hop_us").value(a.late_hop_us);
      }
      for (const SweepRow& r : sweep) {
        const std::string key =
            "sweep_hop_" +
            std::to_string(static_cast<int>(r.hop_s * 1000.0 + 0.5)) + "ms";
        w.key(key + "_ns_per_sample").value(r.ns_per_sample);
        w.key(key + "_steps").value(r.steps);
        w.key(key + "_distance_m").value(r.distance_m);
      }
      w.key("tracker_live_kb").value(heap.live_kb);
      w.key("tracker_peak_kb").value(heap.peak_kb);
      w.key("hop_cost_flat").value(hop_cost_flat);
      w.key("simd_isa").value(
          std::string(dsp::simd::isa_name(dsp::simd::detected())));
      w.key("simd_hop_speedup").value(simd_speedup);
      w.end_object();
      write_historical_recompute(w);
      w.end_object();
      out << '\n';
    }
    std::printf("wrote %s\n", path.c_str());

    if (gate && !hop_cost_flat) {
      std::printf("STREAMING GATE VIOLATION\n");
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "micro_streaming: " << e.what() << "\n";
    return 1;
  }
}
