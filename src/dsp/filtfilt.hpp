// Zero-phase (forward-backward) filtering.
//
// Offline analysis in PTrack (gait-cycle segmentation, critical-point
// extraction) must not shift critical-point *positions*, so it uses
// zero-phase filtering: run the cascade forward, reverse, run again,
// reverse. Reflected edge padding suppresses start-up transients.

#pragma once

#include <span>
#include <vector>

#include "dsp/biquad.hpp"
#include "dsp/simd.hpp"

namespace ptrack::dsp {

class Workspace;

/// Applies `cascade` forward and backward over `xs` with reflected padding of
/// `pad` samples on each side (clamped to xs.size()-1). The cascade is copied
/// internally, so the caller's filter state is untouched.
std::vector<double> filtfilt(const BiquadCascade& cascade,
                             std::span<const double> xs, std::size_t pad = 64);

/// As above, with caller-provided scratch for the padded working buffer
/// (the workspace's real scratch) — repeated calls allocate only the returned
/// output vector.
std::vector<double> filtfilt(const BiquadCascade& cascade,
                             std::span<const double> xs, std::size_t pad,
                             Workspace& ws);

/// Fully allocation-free steady state: writes the filtered signal into
/// `out` (resized to xs.size(), capacity reused across calls). `out` must
/// not alias `xs` or the workspace's real scratch. Identical arithmetic to the
/// allocating overloads (they delegate here).
void filtfilt_into(const BiquadCascade& cascade, std::span<const double> xs,
                   std::size_t pad, Workspace& ws, std::vector<double>& out);

/// Zero-phase-filters up to simd::kIirLanes equal-length channels in one
/// lane-parallel pass (one channel per SIMD lane; IIR recurrences are serial
/// in time, so batching channels is where the parallelism comes from). Each
/// output is bit-identical to filtfilt_into() on that channel alone with the
/// same pad. `outs[c]` must be sized to the channel length and must alias
/// neither the inputs nor the workspace's real scratch.
/// `xs.size() <= kIirLanes`,
/// `cascade.sections().size() <= 8`.
void filtfilt_multi_into(const BiquadCascade& cascade,
                         std::span<const std::span<const double>> xs,
                         std::size_t pad, Workspace& ws,
                         std::span<const std::span<double>> outs);

/// Convenience: zero-phase Butterworth low-pass of the given order.
std::vector<double> zero_phase_lowpass(std::span<const double> xs,
                                       double cutoff_hz, double fs,
                                       int order = 4);

}  // namespace ptrack::dsp
