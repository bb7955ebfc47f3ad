// Fault-injection robustness matrix: fault type x severity, with the
// quality layer's repair pass on vs off (cfg.quality.enabled — the ablation
// switch). For each cell the cohort's step-count error and distance error
// are reported; the claim under test is that detection + repair strictly
// reduces step-count error wherever the fault is repairable (dropouts,
// spikes), and never makes clipping worse.
//
// Errors are measured against the *clean-trace pipeline output* (the same
// tracker run on the unfaulted trace), not against ground truth: the
// pipeline's own truth-relative bias is identical in every cell and would
// mask the fault effect — a spike storm that happens to offset an
// undercounting user would look like an improvement. Truth-relative error
// is still exported per cell (step_error_truth) for the headline view.
//
// Besides the console table, the binary writes BENCH_robustness.json
// (override the path with the PTRACK_BENCH_JSON environment variable) in
// the shared bench schema {"bench": ..., "host": {...}, "metrics": {...}}:
// one record per (fault, severity, repair) cell plus the run's
// observability counters, machine-trackable across PRs like
// BENCH_throughput.json. "host" is the machine block (bench::write_host),
// with workers = 1 (the cohort runs on one thread).
//
// Flags:
//   --reduced      smaller cohort and sweep (the CI smoke configuration)
//   --floor F      exit 1 if any repair-on dropout/spike cell's step-count
//                  accuracy (1 - error) falls below F — the CI regression
//                  gate against silently losing the repair path
//   --json PATH    same as PTRACK_BENCH_JSON

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/ptrack.hpp"
#include "imu/faults.hpp"
#include "obs/metrics.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

struct Cell {
  std::string fault;     ///< "dropout" | "clip" | "spike"
  std::string severity;  ///< human label, e.g. "60/min"
  bool repair = true;
  double step_error = 0.0;        ///< mean |counted - clean run| / clean run
  double distance_error = 0.0;    ///< mean |distance - clean run| / clean run
  double step_error_truth = 0.0;  ///< mean |counted - truth| / truth
};

struct Subject {
  synth::UserProfile user;
  synth::SynthResult synth;
  std::size_t clean_steps = 0;    ///< pipeline output on the clean trace
  double clean_distance = 0.0;
};

/// Applies one fault configuration to a trace. `level` indexes the
/// severity sweep; seeds are fixed so every (repair on, repair off) pair
/// sees the bit-identical faulty trace.
imu::Trace apply_fault(const std::string& fault, std::size_t level,
                       const imu::Trace& trace, std::uint64_t seed) {
  Rng rng(seed);
  if (fault == "dropout") {
    // 50-250 ms holds — the BLE/driver hiccup regime the repair pass is
    // built for (longer blackouts are masked, not bridged, and are scored
    // by the masked-fraction reporting rather than this matrix).
    static const double kRates[] = {30.0, 60.0, 120.0};
    return imu::inject_dropouts(trace, kRates[level], 5, 25, rng);
  }
  if (fault == "clip") {
    static const double kLimitsG[] = {3.0, 2.0, 1.5};
    return imu::clip_acceleration(trace, kLimitsG[level] * kGravity);
  }
  if (fault == "spike") {
    static const double kRates[] = {60.0, 150.0, 300.0};
    return imu::inject_spikes(trace, kRates[level], 8.0, rng,
                              imu::FaultChannels::Both);
  }
  throw Error("fault_matrix: unknown fault " + fault);
}

std::string severity_label(const std::string& fault, std::size_t level) {
  if (fault == "dropout") {
    static const char* kLabels[] = {"30/min", "60/min", "120/min"};
    return kLabels[level];
  }
  if (fault == "clip") {
    static const char* kLabels[] = {"3g", "2g", "1.5g"};
    return kLabels[level];
  }
  static const char* kLabels[] = {"60/min", "150/min", "300/min"};
  return kLabels[level];
}

Cell evaluate(const std::string& fault, std::size_t level, bool repair,
              const std::vector<Subject>& cohort) {
  core::PTrackConfig cfg;
  cfg.quality.enabled = repair;
  Cell cell;
  cell.fault = fault;
  cell.severity = severity_label(fault, level);
  cell.repair = repair;
  for (std::size_t u = 0; u < cohort.size(); ++u) {
    const auto& subject = cohort[u];
    cfg.stride.profile = {subject.user.arm_length, subject.user.leg_length,
                          2.0};
    const auto faulty = apply_fault(
        fault, level, subject.synth.trace,
        bench::kBenchSeed ^ (0xfa017 + 1000 * level + u));
    core::PTrack tracker(cfg);
    const auto result = tracker.process(faulty);
    const double ref_steps = static_cast<double>(subject.clean_steps);
    const double truth_steps =
        static_cast<double>(subject.synth.truth.step_count());
    cell.step_error +=
        std::abs(static_cast<double>(result.steps) - ref_steps) / ref_steps;
    cell.distance_error +=
        std::abs(result.distance() - subject.clean_distance) /
        subject.clean_distance;
    cell.step_error_truth +=
        std::abs(static_cast<double>(result.steps) - truth_steps) /
        truth_steps;
  }
  cell.step_error /= static_cast<double>(cohort.size());
  cell.distance_error /= static_cast<double>(cohort.size());
  cell.step_error_truth /= static_cast<double>(cohort.size());
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    cli::Args args(
        argc, argv,
        {{"reduced", "smaller cohort and sweep (CI smoke)", "", true},
         {"floor",
          "minimum repair-on step accuracy for dropout/spike cells "
          "(0 = no gate)",
          "0", false},
         {"json", "output JSON path (overrides PTRACK_BENCH_JSON)", "",
          false}});
    if (args.help_requested()) {
      std::cout << args.usage("fault_matrix");
      return 0;
    }

    const bool reduced = args.get_bool("reduced");
    const double floor = args.get_double("floor");
    const std::size_t cohort_size = reduced ? 2 : 6;
    const double seconds = reduced ? 45.0 : 90.0;
    // The reduced smoke run keeps the two harsher severities: with a tiny
    // cohort the mild cells are dominated by per-user noise, not by the
    // fault, and the dominance check would flap.
    const std::size_t level_begin = reduced ? 1 : 0;
    const std::size_t levels = 3;

    std::vector<Subject> cohort;
    const auto users = bench::make_users(cohort_size);
    for (std::size_t u = 0; u < cohort_size; ++u) {
      Rng rng(bench::kBenchSeed ^ (0xfau + u));
      Subject subject{users[u],
                      synth::synthesize(
                          synth::Scenario::pure_walking(seconds), users[u],
                          bench::standard_options(), rng)};
      core::PTrackConfig cfg;
      cfg.stride.profile = {users[u].arm_length, users[u].leg_length, 2.0};
      core::PTrack tracker(cfg);
      const auto clean = tracker.process(subject.synth.trace);
      subject.clean_steps = clean.steps;
      subject.clean_distance = clean.distance();
      if (subject.clean_steps == 0) {
        throw Error("fault_matrix: clean run counted zero steps");
      }
      cohort.push_back(std::move(subject));
    }

    const std::vector<std::string> faults = {"dropout", "clip", "spike"};
    std::vector<Cell> cells;
    for (const auto& fault : faults) {
      for (std::size_t level = level_begin; level < levels; ++level) {
        cells.push_back(evaluate(fault, level, false, cohort));
        cells.push_back(evaluate(fault, level, true, cohort));
      }
    }

    std::printf("fault matrix (%zu users x %.0f s, %zu severities)\n",
                cohort_size, seconds, levels - level_begin);
    std::printf("(errors vs the clean-trace pipeline run; truth-relative "
                "error exported as step_error_truth)\n");
    std::printf("%-8s %-9s %-7s %11s %14s %11s\n", "fault", "severity",
                "repair", "step error", "distance error", "vs truth");
    for (const auto& c : cells) {
      std::printf("%-8s %-9s %-7s %10.1f%% %13.1f%% %10.1f%%\n",
                  c.fault.c_str(), c.severity.c_str(),
                  c.repair ? "on" : "off", 100.0 * c.step_error,
                  100.0 * c.distance_error, 100.0 * c.step_error_truth);
    }

    // The headline claim: for repairable faults, repair-on strictly
    // dominates repair-off on step-count error.
    bool dominated = true;
    for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
      const Cell& off = cells[i];
      const Cell& on = cells[i + 1];
      if (off.fault == "clip") continue;
      if (on.step_error >= off.step_error) {
        dominated = false;
        std::printf("NOT DOMINATED: %s %s repair-on %.2f%% >= off %.2f%%\n",
                    on.fault.c_str(), on.severity.c_str(),
                    100.0 * on.step_error, 100.0 * off.step_error);
      }
    }
    std::printf("repair-on dominates repair-off (dropout, spike): %s\n",
                dominated ? "yes" : "NO");

    std::string path = "BENCH_robustness.json";
    if (args.has("json")) {
      path = args.get_string("json");
    } else if (const char* env = std::getenv("PTRACK_BENCH_JSON")) {
      path = env;
    }
    {
      std::ofstream out(path);
      if (!out) throw Error("fault_matrix: cannot open " + path);
      json::Writer w(out);
      w.begin_object();
      w.key("bench").value(std::string("fault_matrix"));
      bench::write_host(w, 1);
      w.key("metrics").begin_object();
      w.key("reduced").value(reduced);
      w.key("repair_dominates").value(dominated);
      w.key("cells").begin_array();
      for (const auto& c : cells) {
        w.begin_object();
        w.key("fault").value(c.fault);
        w.key("severity").value(c.severity);
        w.key("repair").value(c.repair);
        w.key("step_error").value(c.step_error);
        w.key("distance_error").value(c.distance_error);
        w.key("step_error_truth").value(c.step_error_truth);
        w.end_object();
      }
      w.end_array();
      w.key("obs");
      obs::Registry::instance().write_json(w);
      w.end_object();
      w.end_object();
      out << '\n';
    }
    std::printf("wrote %s\n", path.c_str());

    // CI gate: repair-on accuracy floor on the repairable columns.
    if (floor > 0.0) {
      for (const auto& c : cells) {
        if (!c.repair || c.fault == "clip") continue;
        const double accuracy = 1.0 - c.step_error;
        if (accuracy < floor) {
          std::printf("FLOOR VIOLATION: %s %s repair-on accuracy %.3f < "
                      "%.3f\n",
                      c.fault.c_str(), c.severity.c_str(), accuracy, floor);
          return 1;
        }
      }
      std::printf("accuracy floor %.3f held\n", floor);
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "fault_matrix: " << e.what() << "\n";
    return 1;
  }
}
