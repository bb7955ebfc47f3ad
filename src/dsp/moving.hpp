// Sliding-window smoothers: moving average and moving median.

#pragma once

#include <span>
#include <vector>

namespace ptrack::dsp {

/// Centered moving average with window `w` (forced odd; w >= 1). Edges use
/// the available shrunken window.
std::vector<double> moving_average(std::span<const double> xs, std::size_t w);

/// Centered moving median with window `w` (forced odd; w >= 1). Robust to
/// impulsive sensor glitches.
std::vector<double> moving_median(std::span<const double> xs, std::size_t w);

}  // namespace ptrack::dsp
