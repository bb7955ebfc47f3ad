// The Eq. (1) offset metric: how asynchronous the critical points of the
// vertical and anterior channels are within one candidate gait cycle.
//
//   delta(nv) = w(nv) * |nv - c(nv)| / n
//
// where c(nv) is the closest anterior critical point to the vertical
// critical point nv, n is the cycle length in samples, and w(nv) is the
// normalized distance from nv to the previous critical point on the
// vertical axis (points isolated on their own axis carry more weight; a
// cluster of nearby points carries less). The cycle's offset is the sum of
// delta(nv) over all vertical critical points. Rigid single-DOF activities
// produce tightly matched critical points (offset ~ 0); walking's
// two-oscillator superposition misaligns or deletes matches (offset large).

#pragma once

#include <span>

#include "core/critical_points.hpp"

namespace ptrack::core {

/// Bound on w(nv): a long quiet gap before a point (e.g. the dwell phases
/// of eating) must not let a single match dominate the sum.
inline constexpr double kWeightCap = 0.35;

/// Computes the cycle offset. `n` is the cycle length in samples (>= 1).
/// `use_weighting` disables w(nv) for the ablation study (weight = 1 then;
/// otherwise w(nv) is capped at kWeightCap). When the anterior channel has
/// no critical points at all, the offset is 1.0 (maximal: every match
/// "disappeared").
double cycle_offset(std::span<const CriticalPoint> vertical_points,
                    std::span<const CriticalPoint> anterior_points,
                    std::size_t n, bool use_weighting = true);

}  // namespace ptrack::core
