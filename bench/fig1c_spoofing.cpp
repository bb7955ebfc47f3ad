// Fig. 1(c): a motorized spoofing rig (unfitbits-style) accumulates ~48-49
// false steps in only 40 s on every existing counter — wearable and phone
// alike. PTrack (previewed here, formally in Fig. 7(b)) rejects it.
//
// Exits non-zero when PTrack counts any spoofed step (the paper's floor is
// 0), so the run doubles as a regression gate.

#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/ptrack.hpp"
#include "models/gfit.hpp"
#include "models/montage.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

int main() {
  print_banner(std::cout, "Fig. 1(c): spoofed step counts in 40 s");
  const auto users = bench::make_users(6);
  Rng rng(bench::kBenchSeed ^ 0x1c);

  double watch = 0;
  double band = 0;
  double copro = 0;
  double soft = 0;
  double ptrack = 0;
  for (const auto& user : users) {
    const synth::SynthResult r = synth::synthesize(
        synth::Scenario::interference(synth::ActivityKind::Spoofer, 40.0,
                                      synth::Posture::Standing),
        user, bench::standard_options(), rng);
    models::PeakCounter w(models::gfit_watch_config());
    models::PeakCounter b(models::miband_config());
    models::PeakCounter c(models::phone_coprocessor_config());
    models::PeakCounter s(models::phone_software_config());
    core::PTrackCounterAdapter p;
    watch += static_cast<double>(w.count_steps(r.trace).count);
    band += static_cast<double>(b.count_steps(r.trace).count);
    copro += static_cast<double>(c.count_steps(r.trace).count);
    soft += static_cast<double>(s.count_steps(r.trace).count);
    ptrack += static_cast<double>(p.count_steps(r.trace).count);
  }
  const double n = static_cast<double>(users.size());
  Table table({"counter", "steps in 40 s", "paper"});
  table.add_row({"Watch", Table::num(watch / n, 1), "~48"});
  table.add_row({"Band", Table::num(band / n, 1), "~49"});
  table.add_row({"Coprocessor", Table::num(copro / n, 1), "~49"});
  table.add_row({"Software", Table::num(soft / n, 1), "~48"});
  table.add_row({"PTrack", Table::num(ptrack / n, 1), "0 (Fig. 7(b))"});
  table.print(std::cout);
  std::cout << "the rig alternates at 2 Hz; a vulnerable counter ticks ~"
            << 2 * 40 * 0.6 << "+ times.\n";
  if (ptrack > 0.0) {
    std::cerr << "fig1c_spoofing: PTrack counted spoofed steps (floor 0)\n";
    return 1;
  }
  return 0;
}
