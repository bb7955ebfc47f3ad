// Fig. 3 (design validation): quantifies the paper's key observation — the
// critical points of the vertical and anterior projections are synchronous
// for rigid single-DOF motions (swinging, stepping, all interference
// classes, the spoofer) and asynchronous for walking. Prints the per-cycle
// Eq. (1) offset distribution of every activity against the threshold
// delta = 0.0325.
//
// Exits non-zero when fewer than 85 % of walking cycles sit above delta
// (EXPERIMENTS.md records 89 %), so the run doubles as a regression gate.

#include <iostream>

#include "bench_util.hpp"
#include "common/cdf.hpp"
#include "common/table.hpp"
#include "core/ptrack.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

std::vector<double> cycle_offsets(const imu::Trace& trace,
                                  const core::StepCounterConfig& cfg) {
  std::vector<double> offsets;
  if (trace.size() < 32) return offsets;
  core::PTrackConfig pcfg;
  pcfg.counter = cfg;
  for (const core::CycleRecord& c : core::PTrack(pcfg).process(trace).cycles) {
    offsets.push_back(c.offset);
  }
  return offsets;
}

}  // namespace

int main() {
  print_banner(std::cout, "Fig. 3 validation: per-cycle offset by activity");
  const core::StepCounterConfig cfg;
  const auto users = bench::make_users(6);

  struct Row {
    synth::ActivityKind kind;
    bool expect_async;  // paper: walking exceeds delta, the rest stay below
  };
  const std::vector<Row> rows = {
      {synth::ActivityKind::Walking, true},
      {synth::ActivityKind::Stepping, false},
      {synth::ActivityKind::SwingOnly, false},
      {synth::ActivityKind::Eating, false},
      {synth::ActivityKind::Poker, false},
      {synth::ActivityKind::Photo, false},
      {synth::ActivityKind::Gaming, false},
      {synth::ActivityKind::Spoofer, false},
  };

  Table table({"activity", "cycles", "offset p10", "median", "p90",
               "frac > delta", "expected"});
  Rng rng(bench::kBenchSeed ^ 0x33);
  double walking_above = 0.0;
  for (const Row& row : rows) {
    std::vector<double> offsets;
    for (const auto& user : users) {
      synth::Scenario scenario;
      if (row.kind == synth::ActivityKind::Walking) {
        scenario = synth::Scenario::pure_walking(60.0);
      } else if (row.kind == synth::ActivityKind::Stepping) {
        scenario = synth::Scenario::pure_stepping(60.0);
      } else if (row.kind == synth::ActivityKind::SwingOnly) {
        scenario = synth::Scenario{}.activity(synth::ActivityKind::SwingOnly,
                                              60.0);
      } else {
        scenario = synth::Scenario::interference(row.kind, 60.0,
                                                 synth::Posture::Standing);
      }
      const synth::SynthResult r =
          synth::synthesize(scenario, user, bench::standard_options(), rng);
      const auto o = cycle_offsets(r.trace, cfg);
      offsets.insert(offsets.end(), o.begin(), o.end());
    }
    if (offsets.empty()) {
      table.add_row({std::string(to_string(row.kind)), "0", "-", "-", "-",
                     "-", row.expect_async ? "> delta" : "<= delta"});
      continue;
    }
    const EmpiricalCdf cdf(offsets);
    std::size_t above = 0;
    for (double o : offsets) {
      if (o > cfg.delta) ++above;
    }
    const double frac_above =
        static_cast<double>(above) / static_cast<double>(offsets.size());
    if (row.kind == synth::ActivityKind::Walking) walking_above = frac_above;
    table.add_row({std::string(to_string(row.kind)),
                   Table::num(static_cast<long long>(offsets.size())),
                   Table::num(cdf.quantile(0.10), 4),
                   Table::num(cdf.quantile(0.50), 4),
                   Table::num(cdf.quantile(0.90), 4),
                   Table::pct(frac_above),
                   row.expect_async ? "> delta" : "<= delta"});
  }
  table.print(std::cout);
  std::cout << "delta = " << cfg.delta
            << "  (paper SIII-B1; walking cycles should sit above it,\n"
               " rigid-activity cycles below — their critical points are"
               " synchronized)\n";
  if (walking_above < 0.85) {
    std::cerr << "fig3_offset_separation: fewer than 85 % of walking cycles "
                 "above delta\n";
    return 1;
  }
  return 0;
}
