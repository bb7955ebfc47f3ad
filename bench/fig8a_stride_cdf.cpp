// Fig. 8(a): CDF of per-step stride errors — PTrack vs Montage on wrist
// data. Paper: PTrack ~5 cm mean; Montage deteriorates badly because the
// wrist measures arm+body, violating its body-attachment assumption.
//
// Exits non-zero when PTrack's mean stride error is above 8 cm or Montage's
// is less than 3x PTrack's (EXPERIMENTS.md records 7.3 vs 24.7 cm), so the
// run doubles as a regression gate.

#include <iostream>

#include "bench_util.hpp"
#include "common/cdf.hpp"
#include "common/table.hpp"
#include "core/ptrack.hpp"
#include "models/montage.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

void collect_errors(const std::vector<std::pair<double, double>>& estimates,
                    const synth::GroundTruth& truth,
                    std::vector<double>& errs) {
  for (const auto& [t, stride] : estimates) {
    double best = 1e9;
    double s_true = 0.0;
    for (const synth::StepTruth& st : truth.steps) {
      const double dist = std::abs(st.t - t);
      if (dist < best) {
        best = dist;
        s_true = st.stride;
      }
    }
    if (best < 0.6) errs.push_back(std::abs(stride - s_true) * 100.0);  // cm
  }
}

}  // namespace

int main() {
  print_banner(std::cout, "Fig. 8(a): per-step stride error CDF (cm)");
  const auto users = bench::make_users(6);
  Rng rng(bench::kBenchSeed ^ 0x8a);

  std::vector<double> err_ptrack;
  std::vector<double> err_mtage;
  for (const auto& user : users) {
    // Indoor and outdoor trajectories: a few walks at different speeds.
    synth::Scenario scenario;
    scenario.walk(45.0).walk(35.0, user.speed * 0.9).walk(35.0, user.speed * 1.1);
    const synth::SynthResult r =
        synth::synthesize(scenario, user, bench::standard_options(), rng);

    core::PTrackConfig cfg;
    cfg.stride.profile = {user.arm_length, user.leg_length, 2.0};
    core::PTrack tracker(cfg);
    const core::TrackResult res = tracker.process(r.trace);
    std::vector<std::pair<double, double>> est;
    for (const core::StepEvent& e : res.events) {
      if (e.stride > 0.0) est.emplace_back(e.t, e.stride);
    }
    collect_errors(est, r.truth, err_ptrack);

    models::MontageStride mtage(user.leg_length, 2.0);
    std::vector<std::pair<double, double>> mest;
    for (const models::StrideEstimate& e : mtage.estimate(r.trace)) {
      mest.emplace_back(e.t, e.stride);
    }
    collect_errors(mest, r.truth, err_mtage);
  }

  const EmpiricalCdf cp(err_ptrack);
  const EmpiricalCdf cm(err_mtage);
  Table table({"estimator", "mean", "p50", "p90", "paper mean"});
  table.add_row({"PTrack", Table::num(cp.mean(), 1), Table::num(cp.quantile(0.5), 1),
                 Table::num(cp.quantile(0.9), 1), "~5 cm"});
  table.add_row({"Mtage", Table::num(cm.mean(), 1), Table::num(cm.quantile(0.5), 1),
                 Table::num(cm.quantile(0.9), 1), "much larger"});
  table.print(std::cout);

  std::cout << "\nCDF series (error cm -> cumulative probability):\n";
  for (const auto& [name, cdf] : {std::pair{"PTrack", &cp}, {"Mtage", &cm}}) {
    std::cout << name << ": ";
    for (const auto& [x, p] : cdf->series(8)) {
      std::cout << "(" << Table::num(x, 1) << "," << Table::num(p, 2) << ") ";
    }
    std::cout << "\n";
  }
  if (cp.mean() > 8.0 || cm.mean() < 3.0 * cp.mean()) {
    std::cerr << "fig8a_stride_cdf: PTrack mean stride error above 8 cm or "
                 "less than 3x better than Montage\n";
    return 1;
  }
  return 0;
}
