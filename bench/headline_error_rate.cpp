// Headline reproduction (paper abstract): "steps can be accurately counted
// by PTrack, achieving an error rate as low as 0.02 with extensive
// interfering activities".
//
// Simulates the paper's month-scale protocol in compressed form: long
// sessions interleaving every gait type with every interfering activity,
// across a user cohort, and reports each counter's total step error rate
// |counted - true| / true. PTrack runs two ways over the same sessions: the
// batch pipeline and the StreamingTracker at 1 s hops, so the streaming
// layer answers to the paper's figure too.
//
// Flags:
//   --gate   fail (exit 1) if any PTrack row's error rate is above 0.03

#include <iostream>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/ptrack.hpp"
#include "core/streaming.hpp"
#include "models/gfit.hpp"
#include "models/montage.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

synth::Scenario daily_session(Rng& rng) {
  // ~13 minutes mixing commutes, desk time, meals and breaks.
  synth::Scenario s;
  s.walk(90.0)
      .activity(synth::ActivityKind::Gaming, 90.0, synth::Posture::Seated)
      .walk(60.0)
      .activity(synth::ActivityKind::Eating, 120.0, synth::Posture::Seated)
      .step(60.0)
      .activity(synth::ActivityKind::Photo, 60.0, synth::Posture::Standing)
      .walk(75.0)
      .activity(synth::ActivityKind::Poker, 120.0, synth::Posture::Seated)
      .step(45.0)
      .activity(synth::ActivityKind::Idle, 60.0, synth::Posture::Seated)
      .walk(rng.uniform(45.0, 90.0));
  return s;
}

// Steps the StreamingTracker emits over the whole trace at 1 s hops.
double streamed_steps(const imu::Trace& trace, const core::PTrackConfig& cfg) {
  core::StreamingConfig scfg;
  scfg.pipeline = cfg;
  scfg.hop_s = 1.0;
  core::StreamingTracker stream(trace.fs(), scfg);
  stream.push(trace);
  (void)stream.finish();
  return static_cast<double>(stream.steps());
}

// The paper's headline figure ("as low as 0.02") with the recorded
// reproduction's headroom (EXPERIMENTS.md: 0.026).
constexpr double kHeadlineGate = 0.03;

int run(bool gate) {
  print_banner(std::cout,
               "Headline: step error rate over long mixed sessions");
  const auto users = bench::make_users(6);
  Rng rng(bench::kBenchSeed ^ 0x4eadULL);

  double truth_total = 0.0;
  double gfit_err = 0.0;
  double mtage_err = 0.0;
  double ptrack_err = 0.0;
  double stream_err = 0.0;
  double minutes = 0.0;
  for (const auto& user : users) {
    for (int session = 0; session < 2; ++session) {
      const synth::Scenario scenario = daily_session(rng);
      const synth::SynthResult r =
          synth::synthesize(scenario, user, bench::standard_options(), rng);
      minutes += r.trace.duration() / 60.0;
      const double truth = static_cast<double>(r.truth.step_count());
      truth_total += truth;

      models::PeakCounter gfit(models::gfit_watch_config());
      models::MontageCounter mtage;
      core::PTrackConfig cfg;
      cfg.stride.profile = {user.arm_length, user.leg_length, 2.0};
      core::PTrackCounterAdapter ptrack(cfg);

      gfit_err += std::abs(
          static_cast<double>(gfit.count_steps(r.trace).count) - truth);
      mtage_err += std::abs(
          static_cast<double>(mtage.count_steps(r.trace).count) - truth);
      ptrack_err += std::abs(
          static_cast<double>(ptrack.count_steps(r.trace).count) - truth);
      stream_err += std::abs(streamed_steps(r.trace, cfg) - truth);
    }
  }

  Table table({"counter", "error rate", "paper"});
  table.add_row({"GFit", Table::num(gfit_err / truth_total, 3), "-"});
  table.add_row({"Mtage", Table::num(mtage_err / truth_total, 3), "-"});
  table.add_row({"PTrack", Table::num(ptrack_err / truth_total, 3),
                 "as low as 0.02"});
  table.print(std::cout);
  std::cout << minutes << " minutes of mixed sessions over " << users.size()
            << " users, " << static_cast<long long>(truth_total)
            << " true steps; error rate = sum |counted - true| / sum true.\n";

  std::cout << "\nPTrack streamed over the same sessions (1 s hops):\n";
  Table streamed({"precision", "error rate"});
  streamed.add_row({"double", Table::num(stream_err / truth_total, 3)});
  streamed.print(std::cout);

  if (gate) {
    bool ok = true;
    for (const double err : {ptrack_err, stream_err}) {
      ok = ok && err / truth_total <= kHeadlineGate;
    }
    if (!ok) {
      std::cout << "HEADLINE GATE VIOLATION: a PTrack row is above "
                << kHeadlineGate << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    cli::Args args(argc, argv,
                   {{"gate", "fail unless every PTrack row is <= 0.03", "",
                     true}});
    if (args.help_requested()) {
      std::cout << args.usage("headline_error_rate");
      return 0;
    }
    return run(args.get_bool("gate"));
  } catch (const Error& e) {
    std::cerr << "headline_error_rate: " << e.what() << "\n";
    return 1;
  }
}
