// Adaptive tuning of the offset threshold delta — the paper's stated
// future work ("we plan to adaptively tune the threshold delta").
//
// Observation: over any realistic session the per-cycle offsets are
// bimodal — a low cluster (rigid activities, stepping) and a high cluster
// (walking). The fixed delta = 0.0325 works when sensors and users match
// the paper's; a device with a different noise floor or a user with an
// unusual gait shifts both clusters. Otsu's criterion (maximal
// between-class variance) finds the valley between the clusters from the
// unlabeled offsets themselves, giving a per-session delta with no ground
// truth required.

#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"
#include "imu/trace.hpp"

namespace ptrack::core {

/// Result of one adaptive-delta pass.
struct AdaptiveDelta {
  double delta = 0.0;        ///< tuned threshold
  double separation = 0.0;   ///< between-class variance at the optimum,
                             ///< normalized by total variance (0..1); low
                             ///< values mean the offsets were not bimodal
  std::size_t cycles = 0;    ///< evidence volume
};

/// Otsu threshold over a set of per-cycle offsets (values in [0, 1]).
/// Requires >= 8 samples. `bins` controls the histogram resolution.
AdaptiveDelta otsu_threshold(std::span<const double> offsets,
                             std::size_t bins = 64);

/// Collects the per-cycle offsets of a trace (CycleRecord::offset of
/// PTrack::process with `cfg` and the quality layer off) and tunes delta
/// from them. When the offsets are not
/// separable (separation < min_separation) or there are fewer than 8
/// cycles, the returned delta falls back to cfg.delta.
AdaptiveDelta tune_delta(const imu::Trace& trace,
                         const StepCounterConfig& cfg = {},
                         double min_separation = 0.5);

}  // namespace ptrack::core
