#include "bench_util.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "dsp/simd.hpp"

namespace ptrack::bench {

std::vector<synth::UserProfile> make_users(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<synth::UserProfile> users;
  users.reserve(n);
  for (std::size_t i = 0; i < n; ++i) users.push_back(synth::random_user(rng));
  return users;
}

synth::SynthOptions standard_options() {
  synth::SynthOptions opt;
  opt.device_fs = 100.0;
  opt.internal_fs = 400.0;
  return opt;
}

models::ScarClassifier train_scar(const synth::UserProfile& user,
                                  const std::vector<synth::ActivityKind>& kinds,
                                  double seconds_per_class, Rng& rng) {
  std::vector<models::LabeledTrace> examples;
  for (synth::ActivityKind kind : kinds) {
    synth::Scenario scenario;
    if (kind == synth::ActivityKind::Walking) {
      scenario = synth::Scenario::pure_walking(seconds_per_class);
    } else if (kind == synth::ActivityKind::Stepping) {
      scenario = synth::Scenario::pure_stepping(seconds_per_class);
    } else {
      scenario = synth::Scenario::interference(kind, seconds_per_class,
                                               synth::Posture::Standing);
    }
    synth::SynthResult r =
        synth::synthesize(scenario, user, standard_options(), rng);
    examples.push_back({std::move(r.trace), std::string(to_string(kind))});
  }
  models::ScarClassifier clf;
  clf.fit(examples);
  return clf;
}

std::vector<std::string> scar_gait_labels() { return {"walking", "stepping"}; }

double count_accuracy(std::size_t counted, std::size_t truth) {
  if (truth == 0) return counted == 0 ? 1.0 : 0.0;
  const double err = std::abs(static_cast<double>(counted) -
                              static_cast<double>(truth)) /
                     static_cast<double>(truth);
  return 1.0 - err;
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = std::max(1, CPU_COUNT(&set));
  }
  return static_cast<std::size_t>(cpus);
}

void write_host(json::Writer& w, std::size_t workers) {
  w.key("host").begin_object();
  w.key("nproc").value(available_cpus());
  w.key("isa").value(dsp::simd::isa_name(dsp::simd::detected()));
  w.key("build_type").value(PTRACK_BENCH_BUILD_TYPE);
  w.key("workers").value(workers);
  w.end_object();
}

}  // namespace ptrack::bench
