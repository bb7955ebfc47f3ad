// Seeded workload inputs from the synthesizer, with ground truth.
#include <array>

#include "bench.hpp"
#include "common/rng.hpp"
#include "imu/faults.hpp"
#include "synth/scenario.hpp"
#include "synth/synthesizer.hpp"

namespace e2e {

namespace {

// A fixed cohort of participants: the seed varies what they do and how the
// recordings go, not who they are, so accuracy figures compare across seeds.
constexpr std::size_t kPanel = 8;
constexpr std::uint64_t kPanelSeed = 0x5eed0c0407ULL;

const std::array<ptrack::synth::UserProfile, kPanel>& panel() {
  static const auto users = [] {
    std::array<ptrack::synth::UserProfile, kPanel> u;
    ptrack::Rng rng(kPanelSeed);
    for (auto& p : u) p = ptrack::synth::random_user(rng);
    return u;
  }();
  return users;
}

ptrack::synth::Scenario scenario(std::size_t kind, double seconds,
                                 ptrack::Rng& rng) {
  using ptrack::synth::ActivityKind;
  using ptrack::synth::Scenario;
  switch (kind) {
    case 0:
      return Scenario::pure_walking(seconds);
    case 1:
      return Scenario::pure_stepping(seconds);
    case 2:
      return Scenario::mixed_gait(seconds);
    default: {
      static constexpr std::array<ActivityKind, 4> kOthers = {
          ActivityKind::Eating, ActivityKind::Photo, ActivityKind::Gaming,
          ActivityKind::Poker};
      const auto other = kOthers[static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(kOthers.size()) - 1e-9))];
      Scenario s;
      s.walk(seconds / 3.0);
      s.activity(other, seconds / 3.0);
      s.walk(seconds - 2.0 * (seconds / 3.0));
      return s;
    }
  }
}

}  // namespace

std::vector<Recording> make_recordings(std::uint64_t seed, std::size_t count,
                                       double seconds) {
  std::vector<Recording> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ptrack::Rng rng(seed * 1000003ULL + i);
    const std::size_t kind = i % 4;
    const auto& user = panel()[(i / 4 + i) % kPanel];
    auto synth = ptrack::synth::synthesize(scenario(kind, seconds, rng), user,
                                           rng);
    Recording r;
    r.true_steps = synth.truth.step_count();
    r.true_distance = synth.truth.total_distance();
    // Faults go into a fixed share (one in four) so quality repair works.
    if (i % 8 == 2 || i % 8 == 5) {
      auto t = ptrack::imu::inject_dropouts(synth.trace, 2.0, 3, 15, rng);
      r.trace = ptrack::imu::inject_spikes(t, 2.0, 4.0, rng,
                                           ptrack::imu::FaultChannels::Both);
    } else {
      r.trace = std::move(synth.trace);
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace e2e
