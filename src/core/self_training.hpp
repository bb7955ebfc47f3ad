// User-profile self-training (paper SIII-C2).
//
// The paper's two-step design with the technical details it omits
// reconstructed as follows (documented in DESIGN.md §3):
//
//  Step 1 — arm length m̂. The primary signal is the *stepping anchor*:
//  during stepping (pocketed hand, carried bag — which daily traces
//  naturally contain) the device rides the body and observes the bounce
//  directly; m̂ is the arm length whose walking-geometry bounce agrees
//  with that direct observation. The dispersion of the walking-derived
//  bounce and an invalid-solve penalty regularize the search; with a
//  walking-only calibration trace m̂ is only weakly identified, but the
//  Step-2 distance anchor then absorbs the residual scale error.
//
//  Step 2 — leg length l̂: anchored on a known calibration distance, reusing
//  the initialization walk the paper already requires for training the
//  Eq. (2) factor k (in deployment: any GPS-available outdoor segment).
//  l̂ minimizes the squared difference between the modeled total distance
//  and the known distance.

#pragma once

#include "core/types.hpp"
#include "imu/trace.hpp"

namespace ptrack::core {

/// Search configuration. The search grid and objective weights are fixed
/// (core/self_training.cpp).
struct SelfTrainingConfig {
  StepCounterConfig counter{};
  double k = 2.0;              ///< Eq. (2) factor used during the search
};

/// Result of one self-training pass.
struct SelfTrainingResult {
  double arm_length = 0.0;
  double leg_length = 0.0;
  double arm_objective = 0.0;  ///< objective at the chosen m̂
  double leg_objective = 0.0;  ///< objective at the chosen l̂
  std::size_t walking_cycles = 0;  ///< evidence volume for m̂
};

/// Step 1: trains m̂ from an unlabeled trace containing walking.
/// Requires enough walking cycles (>= 8) or throws ptrack::Error.
double train_arm_length(const imu::Trace& trace,
                        const SelfTrainingConfig& cfg = {});

/// Step 2: trains l̂ given m̂ and the true length of the walked trajectory.
double train_leg_length(const imu::Trace& trace, double arm_length,
                        double known_distance,
                        const SelfTrainingConfig& cfg = {});

/// Both steps over a calibration walk of known length.
SelfTrainingResult self_train(const imu::Trace& trace, double known_distance,
                              const SelfTrainingConfig& cfg = {});

}  // namespace ptrack::core
