// Ablation: critical-point extraction thresholds.
//
// Sweeps the query-prominence / match-prominence / match-hysteresis knobs
// of the Eq. (1) offset metric and reports, for each setting, how well the
// per-cycle offset separates walking from every rigid activity: the
// fraction of walking cycles above delta (want high) and the worst
// rigid-activity fraction above delta (want ~0). This is the calibration
// evidence behind the defaults in StepCounterConfig.

#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/ptrack.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

struct Corpus {
  std::vector<imu::Trace> walking;
  std::vector<imu::Trace> rigid;  // everything that must stay below delta
};

Corpus build_corpus() {
  Corpus corpus;
  Rng rng(bench::kBenchSeed ^ 0x77);
  for (const auto& user : bench::make_users(5)) {
    corpus.walking.push_back(
        synth::synthesize(synth::Scenario::pure_walking(45.0), user,
                          bench::standard_options(), rng)
            .trace);
    for (synth::ActivityKind kind :
         {synth::ActivityKind::SwingOnly, synth::ActivityKind::Eating,
          synth::ActivityKind::Poker, synth::ActivityKind::Photo,
          synth::ActivityKind::Gaming, synth::ActivityKind::Spoofer}) {
      corpus.rigid.push_back(
          synth::synthesize(
              synth::Scenario{}.activity(kind, 45.0, synth::Posture::Standing),
              user, bench::standard_options(), rng)
              .trace);
    }
  }
  return corpus;
}

struct Separation {
  double walking_above = 0.0;  ///< fraction of walking cycles above delta
  double rigid_above = 0.0;    ///< fraction of rigid cycles above delta
};

Separation evaluate(const Corpus& corpus, const core::StepCounterConfig& cfg) {
  const auto fraction_above = [&](const std::vector<imu::Trace>& traces) {
    std::size_t above = 0;
    std::size_t total = 0;
    for (const imu::Trace& trace : traces) {
      core::PTrackConfig pcfg;
      pcfg.counter = cfg;
      for (const core::CycleRecord& c :
           core::PTrack(pcfg).process(trace).cycles) {
        ++total;
        if (c.offset > cfg.delta) ++above;
      }
    }
    return total == 0 ? 0.0
                      : static_cast<double>(above) / static_cast<double>(total);
  };
  return {fraction_above(corpus.walking), fraction_above(corpus.rigid)};
}

}  // namespace

int main() {
  print_banner(std::cout,
               "Ablation: critical-point thresholds vs offset separation");
  const Corpus corpus = build_corpus();

  Table table({"sym", "query prom", "match prom", "match hyst",
               "walk > delta", "rigid > delta", "margin"});
  for (bool sym : {false, true}) {
    for (double qp : {0.08, 0.12, 0.18, 0.25}) {
      for (double mp : {0.05, 0.10, 0.20, 0.30}) {
        for (double mh : {0.50, 0.80, 1.20, 2.00}) {
          core::StepCounterConfig cfg;
          cfg.symmetric_offset = sym;
          cfg.query_prominence = qp;
          cfg.match_prominence = mp;
          cfg.match_hysteresis = mh;
          const Separation s = evaluate(corpus, cfg);
          table.add_row({sym ? "y" : "n", Table::num(qp, 2),
                         Table::num(mp, 2), Table::num(mh, 2),
                         Table::pct(s.walking_above), Table::pct(s.rigid_above),
                         Table::num(s.walking_above - s.rigid_above, 3)});
        }
      }
    }
  }
  table.print(std::cout);
  std::cout << "margin = walking fraction above delta minus rigid fraction"
               " above delta (1.0 is perfect).\n";
  return 0;
}
