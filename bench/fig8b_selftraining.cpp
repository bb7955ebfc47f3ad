// Fig. 8(b): PTrack with self-trained profiles ("PTrack-Automatic") vs
// manually measured profiles ("PTrack-Manual"). Paper: 5.3 cm vs 5.7 cm
// mean per-step error — the automatic profile is *slightly better* because
// manual tape measurements carry their own error, which the self-training
// avoids.
//
// Exits non-zero when the self-trained mean stride error is above the
// manual one (EXPERIMENTS.md records 7.7 vs 8.0 cm, the paper's ordering),
// so the run doubles as a regression gate.

#include <iostream>

#include "bench_util.hpp"
#include "common/cdf.hpp"
#include "common/table.hpp"
#include "core/ptrack.hpp"
#include "core/self_training.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

std::vector<double> run_errors(const synth::SynthResult& r,
                               const core::StrideProfile& profile) {
  core::PTrackConfig cfg;
  cfg.stride.profile = profile;
  core::PTrack tracker(cfg);
  const core::TrackResult res = tracker.process(r.trace);
  std::vector<double> errs;
  for (const core::StepEvent& e : res.events) {
    if (e.stride <= 0.0) continue;
    double best = 1e9;
    double s_true = 0.0;
    for (const synth::StepTruth& st : r.truth.steps) {
      const double dist = std::abs(st.t - e.t);
      if (dist < best) {
        best = dist;
        s_true = st.stride;
      }
    }
    if (best < 0.6) errs.push_back(std::abs(e.stride - s_true) * 100.0);
  }
  return errs;
}

}  // namespace

int main() {
  print_banner(std::cout,
               "Fig. 8(b): self-trained vs manually measured profiles");
  const auto users = bench::make_users(6);
  Rng rng(bench::kBenchSeed ^ 0x8b);

  std::vector<double> err_auto;
  std::vector<double> err_manual;
  std::vector<double> arm_err;
  std::vector<double> leg_err;
  for (const auto& user : users) {
    // Calibration trace (known length, e.g. GPS-measured) for
    // self-training: everyday mixed gait, so stepping segments are present
    // to anchor the arm-length search.
    const synth::SynthResult cal = synth::synthesize(
        synth::Scenario::mixed_gait(120.0), user, bench::standard_options(),
        rng);
    core::SelfTrainingResult trained;
    try {
      trained = core::self_train(cal.trace, cal.truth.total_distance());
    } catch (const Error& e) {
      std::cout << "self-training failed for a user: " << e.what() << "\n";
      continue;
    }
    arm_err.push_back(std::abs(trained.arm_length - user.arm_length) * 100.0);
    leg_err.push_back(std::abs(trained.leg_length - user.leg_length) * 100.0);

    // Evaluation walk.
    const synth::SynthResult eval = synth::synthesize(
        synth::Scenario::pure_walking(90.0), user, bench::standard_options(),
        rng);

    // Manual measurement: tape-measured by an inexperienced user — a
    // centimetre-scale reading error on each limb (paper SII).
    core::StrideProfile manual;
    manual.arm_length = user.arm_length + rng.normal(0.0, 0.02);
    manual.leg_length = user.leg_length + rng.normal(0.0, 0.025);
    manual.k = 2.0;

    core::StrideProfile automatic;
    automatic.arm_length = trained.arm_length;
    automatic.leg_length = trained.leg_length;
    automatic.k = 2.0;

    for (double e : run_errors(eval, automatic)) err_auto.push_back(e);
    for (double e : run_errors(eval, manual)) err_manual.push_back(e);
  }

  const EmpiricalCdf ca(err_auto);
  const EmpiricalCdf cm(err_manual);
  Table table({"profile", "mean", "p50", "p90", "paper mean"});
  table.add_row({"PTrack-Automatic", Table::num(ca.mean(), 1),
                 Table::num(ca.quantile(0.5), 1), Table::num(ca.quantile(0.9), 1),
                 "5.3 cm"});
  table.add_row({"PTrack-Manual", Table::num(cm.mean(), 1),
                 Table::num(cm.quantile(0.5), 1), Table::num(cm.quantile(0.9), 1),
                 "5.7 cm"});
  table.print(std::cout);
  std::cout << "self-trained profile errors: arm mean "
            << Table::num(err_auto.empty() ? 0.0
                                           : EmpiricalCdf(arm_err).mean(), 1)
            << " cm, leg mean "
            << Table::num(err_auto.empty() ? 0.0
                                           : EmpiricalCdf(leg_err).mean(), 1)
            << " cm\n";
  if (ca.mean() > cm.mean()) {
    std::cerr << "fig8b_selftraining: self-trained stride error above the "
                 "manual one\n";
    return 1;
  }
  return 0;
}
