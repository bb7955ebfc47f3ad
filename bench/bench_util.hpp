// Shared helpers for the figure-reproduction benches: standard user cohort,
// standard synthesis options, SCAR training-set construction, and accuracy
// scoring.

#pragma once

#include <cstdint>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "models/scar.hpp"
#include "synth/profile.hpp"
#include "synth/scenario.hpp"
#include "synth/synthesizer.hpp"

namespace ptrack::bench {

/// The deterministic base seed of all benches.
inline constexpr std::uint64_t kBenchSeed = 0x9e3779b97f4a7c15ULL;

/// A cohort of n random users (deterministic).
std::vector<synth::UserProfile> make_users(std::size_t n,
                                           std::uint64_t seed = kBenchSeed);

/// Standard synthesis options used by all benches (100 Hz device,
/// consumer-grade noise).
synth::SynthOptions standard_options();

/// Trains a SCAR classifier on the given activity kinds for one user
/// (seconds of data per class). Gait classes are labeled "walking" and
/// "stepping"; interference classes get their activity name.
models::ScarClassifier train_scar(const synth::UserProfile& user,
                                  const std::vector<synth::ActivityKind>& kinds,
                                  double seconds_per_class, Rng& rng);

/// The gait labels SCAR counts steps in.
std::vector<std::string> scar_gait_labels();

/// Step-count accuracy as the paper reports it: 1 - |counted - true|/true.
double count_accuracy(std::size_t counted, std::size_t truth);

/// Writes key "host" into `w`'s open object: the machine block e2e_bench
/// prints (nproc = CPUs this process may run on, the detected SIMD ISA, the
/// build type, whether obs instrumentation is compiled in) plus the
/// bench's worker-thread count, so a recorded figure names its hardware.
void write_host(json::Writer& w, std::size_t workers);

}  // namespace ptrack::bench
