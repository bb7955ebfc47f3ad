// Fig. 6(a): step-counting accuracy of GFit / Montage / SCAR / PTrack on
// walking-only, stepping-only and mixed gait, without intended
// interference. Paper: all four accurate — walking 0.97/0.97/0.99/0.98,
// stepping 0.98/0.99/1.0/0.98, mixed 0.91/0.92/0.90/0.93.
//
// Exits non-zero when any PTrack per-gait accuracy falls more than 0.02
// below its recorded value (EXPERIMENTS.md: walking 0.938, stepping 0.999,
// mixed 0.967), so the run doubles as a regression gate.

#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/ptrack.hpp"
#include "models/gfit.hpp"
#include "models/montage.hpp"
#include "models/scar.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

int main() {
  print_banner(std::cout, "Fig. 6(a): step counting accuracy by gait type");
  const auto users = bench::make_users(6);
  Rng rng(bench::kBenchSeed ^ 0x6a);

  struct Case {
    std::string name;
    synth::Scenario scenario;
    std::string paper;
    double recorded;  ///< PTrack accuracy this bench printed when gated
  };
  const std::vector<Case> cases = {
      {"walking", synth::Scenario::pure_walking(120.0), "0.97/0.97/0.99/0.98",
       0.938},
      {"stepping", synth::Scenario::pure_stepping(120.0), "0.98/0.99/1.0/0.98",
       0.999},
      {"mixed", synth::Scenario::mixed_gait(120.0), "0.91/0.92/0.90/0.93",
       0.967},
  };
  std::string below_floor;

  Table table({"gait", "GFit", "Mtage", "SCAR", "PTrack", "paper(G/M/S/P)"});
  for (const Case& c : cases) {
    std::vector<double> acc_gfit;
    std::vector<double> acc_mtage;
    std::vector<double> acc_scar;
    std::vector<double> acc_ptrack;
    for (const auto& user : users) {
      const synth::SynthResult r =
          synth::synthesize(c.scenario, user, bench::standard_options(), rng);
      const std::size_t truth = r.truth.step_count();

      models::PeakCounter gfit(models::gfit_watch_config());
      models::MontageCounter mtage;
      Rng scar_rng = rng.fork();
      models::ScarCounter scar(
          bench::train_scar(user,
                            {synth::ActivityKind::Walking,
                             synth::ActivityKind::Stepping,
                             synth::ActivityKind::Eating,
                             synth::ActivityKind::Poker,
                             synth::ActivityKind::Gaming},
                            40.0, scar_rng),
          bench::scar_gait_labels());
      core::PTrackCounterAdapter ptrack;

      acc_gfit.push_back(
          bench::count_accuracy(gfit.count_steps(r.trace).count, truth));
      acc_mtage.push_back(
          bench::count_accuracy(mtage.count_steps(r.trace).count, truth));
      acc_scar.push_back(
          bench::count_accuracy(scar.count_steps(r.trace).count, truth));
      acc_ptrack.push_back(
          bench::count_accuracy(ptrack.count_steps(r.trace).count, truth));
    }
    const double ptrack_acc = stats::mean(acc_ptrack);
    table.add_row({c.name, Table::num(stats::mean(acc_gfit), 3),
                   Table::num(stats::mean(acc_mtage), 3),
                   Table::num(stats::mean(acc_scar), 3),
                   Table::num(ptrack_acc, 3), c.paper});
    if (ptrack_acc < c.recorded - 0.02) {
      below_floor += " " + c.name + " " + Table::num(ptrack_acc, 3) +
                     " (recorded " + Table::num(c.recorded, 3) + ")";
    }
  }
  table.print(std::cout);
  std::cout << "accuracy = 1 - |counted - true| / true, averaged over "
            << users.size() << " users.\n";
  if (!below_floor.empty()) {
    std::cerr << "fig6a_step_accuracy: PTrack accuracy more than 0.02 below "
                 "its recorded value:"
              << below_floor << "\n";
    return 1;
  }
  return 0;
}
