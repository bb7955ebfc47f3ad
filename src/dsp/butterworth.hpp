// N-th order Butterworth filter design as a biquad cascade.
//
// Analog Butterworth prototype poles are mapped with the bilinear transform
// (with frequency prewarping). Odd orders get one first-order section,
// represented as a degenerate biquad.

#pragma once

#include "dsp/biquad.hpp"

namespace ptrack::dsp {

/// Designs an order-n Butterworth low-pass as a cascade. n in [1, 12].
BiquadCascade butterworth_lowpass(int order, double cutoff_hz, double fs);

}  // namespace ptrack::dsp
