// Correlation utilities.
//
// PTrack's stepping test uses the *half-cycle autocorrelation* of anterior
// acceleration (large positive value confirms the twice-per-gait-cycle
// (co)sine pattern of stepping; arm gestures are not guaranteed positive)
// and a cross-correlation lag to verify the fixed quarter-period phase
// difference between vertical and anterior body accelerations (Kim et al.).
//
// Every kernel is a direct lag loop over one demeaned copy of the input
// (mean and variance hoisted out of the loop, each lag a simd::dot). The
// inputs are single gait cycles (~110 samples at 100 Hz, at most 240) and
// SCAR's 2 s windows, where an O(n * lags) loop does at most ~30k
// multiply-adds — there is no FFT path because no caller reaches the sizes
// where one would pay off (DESIGN.md §7).

#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ptrack::dsp {

/// Normalized autocorrelation at a single lag (mean removed, normalized by
/// variance; result in [-1, 1]). Requires lag < xs.size() and a non-constant
/// signal (returns 0 for constant input).
double autocorr_at(std::span<const double> xs, std::size_t lag);

/// Normalized autocorrelation for all lags in [0, max_lag] (unbiased
/// normalization, clamped to [-1, 1]; all zeros for a constant signal).
/// Requires max_lag < xs.size().
std::vector<double> autocorr(std::span<const double> xs, std::size_t max_lag);

/// The lag k in [-max_lag, max_lag] that maximizes the normalized
/// cross-correlation of a and b (equal sizes, max_lag < size); positive k
/// means b is delayed relative to a. Ties go to the smallest lag, so an
/// all-zero correlation returns -max_lag. Allocation-free in steady state.
int best_lag(std::span<const double> a, std::span<const double> b,
             std::size_t max_lag);

/// Fundamental period estimate (in samples) via the highest autocorrelation
/// peak in [min_lag, max_lag]; returns 0 when no peak exists.
std::size_t dominant_period(std::span<const double> xs, std::size_t min_lag,
                            std::size_t max_lag);

}  // namespace ptrack::dsp
