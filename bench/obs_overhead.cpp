// Observability overhead gate: the instrumented pipeline, with metrics and
// spans ENABLED but never scraped, must cost at most 3% over the same
// binary with the runtime kill switch off. This is the budget DESIGN.md
// "Observability" promises; the gate keeps instrumentation creep honest.
//
// Method: one synthetic walking trace is pushed through core::PTrack
// repeatedly, in alternating blocks of runs with obs::set_enabled(true) /
// false. Alternation cancels slow drift (thermal, frequency scaling); the
// minimum block time per arm estimates each arm's true cost with the noise
// floor removed, and overhead = min_on / min_off - 1. Span rings are reset
// between blocks so the ON arm measures steady-state recording, not
// ring-allocation one-offs.
//
// Flags:
//   --reduced     shorter trace and fewer blocks (the CI smoke
//                 configuration)
//   --gate G      fail (exit 1) when overhead exceeds G (default 0.03;
//                 0 disables the gate)
//   --json PATH   write {"bench":"obs_overhead","host":{...},"metrics":{...}}
//                 (also via the PTRACK_BENCH_JSON environment variable);
//                 "host" is the machine block (bench::write_host), with
//                 workers = 1 (the runs are single-threaded)
//
// With -DPTRACK_OBS=OFF both arms run the same uninstrumented code; the
// measured overhead is pure noise around 0 and the gate trivially holds.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/ptrack.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One block: `runs` full pipeline passes; returns the block's wall time.
double run_block(const core::PTrack& tracker, const imu::Trace& trace,
                 std::size_t runs) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < runs; ++i) {
    const core::TrackResult r = tracker.process(trace);
    if (r.steps == 0) throw Error("obs_overhead: pipeline counted no steps");
  }
  return seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    cli::Args args(
        argc, argv,
        {{"reduced", "shorter trace and fewer blocks (CI smoke)", "", true},
         {"gate",
          "maximum allowed enabled/disabled overhead fraction (0 = report "
          "only)",
          "0.03", false},
         {"json", "output JSON path (overrides PTRACK_BENCH_JSON)", "",
          false}});
    if (args.help_requested()) {
      std::cout << args.usage("obs_overhead");
      return 0;
    }
    const bool reduced = args.get_bool("reduced");
    const double gate = args.get_double("gate");
    const double seconds = reduced ? 20.0 : 60.0;
    const std::size_t blocks_per_arm = reduced ? 9 : 15;
    const std::size_t runs_per_block = reduced ? 4 : 6;

    Rng rng(bench::kBenchSeed ^ 0x0b5);
    const auto user = bench::make_users(1).front();
    const imu::Trace trace =
        synth::synthesize(synth::Scenario::pure_walking(seconds), user,
                          bench::standard_options(), rng)
            .trace;
    const core::PTrack tracker;

    // Warm-up with obs on: registers every metric, allocates the span ring
    // and the workspace buffers, faults in the code. Neither arm should pay
    // these one-offs inside a measured block.
    obs::set_enabled(true);
    run_block(tracker, trace, 2);

    double min_on = std::numeric_limits<double>::infinity();
    double min_off = std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < blocks_per_arm; ++b) {
      // ON first, then OFF, so neither arm systematically lands on the
      // warmer half of each pair.
      obs::set_enabled(true);
      obs::reset_trace();  // steady-state ring recording, never full
      min_on = std::min(min_on, run_block(tracker, trace, runs_per_block));
      obs::set_enabled(false);
      min_off = std::min(min_off, run_block(tracker, trace, runs_per_block));
    }
    obs::set_enabled(true);

    const double overhead = min_on / min_off - 1.0;
    std::printf("obs_overhead: %zu blocks x %zu runs of a %.0f s trace\n",
                blocks_per_arm, runs_per_block, seconds);
    std::printf("  enabled:  %.3f ms/block (min)\n", 1e3 * min_on);
    std::printf("  disabled: %.3f ms/block (min)\n", 1e3 * min_off);
    std::printf("  overhead: %.2f%% (gate %.0f%%)\n", 100.0 * overhead,
                100.0 * gate);

    std::string path = "BENCH_obs_overhead.json";
    if (args.has("json")) {
      path = args.get_string("json");
    } else if (const char* env = std::getenv("PTRACK_BENCH_JSON")) {
      path = env;
    }
    {
      std::ofstream out(path);
      if (!out) throw Error("obs_overhead: cannot open " + path);
      json::Writer w(out);
      w.begin_object();
      w.key("bench").value(std::string("obs_overhead"));
      bench::write_host(w, 1);
      w.key("metrics").begin_object();
      w.key("reduced").value(reduced);
      w.key("obs_compiled").value(PTRACK_OBS_ENABLED != 0);
      w.key("enabled_s").value(min_on);
      w.key("disabled_s").value(min_off);
      w.key("overhead").value(overhead);
      w.key("gate").value(gate);
      w.end_object();
      w.end_object();
      out << '\n';
    }
    std::printf("wrote %s\n", path.c_str());

    if (gate > 0.0 && overhead > gate) {
      std::printf("OVERHEAD GATE VIOLATION: %.2f%% > %.0f%%\n",
                  100.0 * overhead, 100.0 * gate);
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "obs_overhead: " << e.what() << "\n";
    return 1;
  }
}
