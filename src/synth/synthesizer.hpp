// Wrist-IMU synthesizer: turns a Scenario + UserProfile into a device trace
// plus ground truth.
//
// Pipeline: per-segment kinematics (gait generator / arc motions) at a high
// internal rate -> positional stitching across segments -> short smoothing
// to soften segment-boundary jerk -> numerical second derivative -> specific
// force (linear acceleration minus gravity) -> constant device mounting
// rotation -> resampling to the device rate -> sensor error model.
//
// This module is the substitution for the paper's LG Urbane + human
// subjects; see DESIGN.md §3 for the argument that it preserves the signal
// structure PTrack's algorithms depend on.

#pragma once

#include "common/rng.hpp"
#include "imu/noise.hpp"
#include "imu/trace.hpp"
#include "synth/profile.hpp"
#include "synth/scenario.hpp"
#include "synth/truth.hpp"

namespace ptrack::synth {

/// Synthesis options.
struct SynthOptions {
  double device_fs = 100.0;    ///< output sample rate (Hz)
  double internal_fs = 400.0;  ///< kinematics rate (Hz), >= device_fs
  imu::SensorErrorModel noise{};  ///< sensor error model (default consumer)
  bool random_mount = true;    ///< draw a constant random device orientation

  /// Attitude-residual (gravity-leak) fraction: the device physically tilts
  /// with the arm/arc angle; platform sensor fusion removes most of that
  /// tilt when projecting to world axes, but a residual fraction of the
  /// angle leaks gravity between the projected channels. 0 disables
  /// (idealized fusion); ~0.10-0.20 matches commodity wearables.
  double attitude_leak = 0.20;
};

/// A synthesized experiment.
///
/// Frame semantics: `trace` accelerations model the *platform-corrected*
/// specific force a commodity wearable exposes (gravity virtual sensor),
/// with `attitude_leak` as the residual fusion error; `trace` gyro rates
/// are the *raw* physical angular rates of the wrist (the full tilt, not
/// the residual).
struct SynthResult {
  imu::Trace trace;          ///< what the wearable records
  GroundTruth truth;         ///< what actually happened
  std::vector<Vec3> body_path;  ///< body world positions at device_fs
};

/// Synthesizes the scenario for the given user. Deterministic given `rng`.
SynthResult synthesize(const Scenario& scenario, const UserProfile& user,
                       const SynthOptions& options, Rng& rng);

/// Convenience overload with default options.
SynthResult synthesize(const Scenario& scenario, const UserProfile& user,
                       Rng& rng);

}  // namespace ptrack::synth
