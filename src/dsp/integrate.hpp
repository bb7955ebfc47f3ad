// Numerical integration of acceleration, including the *mean-removal*
// double integration used by PTrack (after MoLe, MobiCom'15).
//
// Direct double integration of accelerometer data drifts quadratically with
// the sensor bias. When a segment is bounded by zero-velocity instants
// (true for the sub-step arm sweeps PTrack integrates), subtracting the
// segment-mean acceleration before integrating forces the reconstructed
// velocity back to zero at the segment end, collapsing the bias-induced
// drift; displacement accuracy then reaches the millimetre level.

#pragma once

#include <span>
#include <vector>

namespace ptrack::dsp {

/// Cumulative trapezoidal integral; out[0] == 0, out.size() == xs.size().
/// dt > 0 is the sample period.
std::vector<double> cumtrapz(std::span<const double> xs, double dt);

/// Result of integrating an acceleration segment twice.
struct Kinematics {
  std::vector<double> velocity;  ///< per-sample velocity, v[0] == 0
  std::vector<double> position;  ///< per-sample position, p[0] == 0
};

/// Plain double integration (no correction); exposed for the Fig. 1(d)
/// "Integral" baseline that shows why naive integration fails.
Kinematics integrate_twice(std::span<const double> accel, double dt);

/// Net displacement of a zero-velocity-bounded segment (mean-removal).
double net_displacement(std::span<const double> accel, double dt);

/// Peak-to-peak positional excursion of a zero-velocity-bounded segment
/// (mean-removal); this is how PTrack measures vertical bounce amplitudes.
double peak_to_peak_displacement(std::span<const double> accel, double dt);

}  // namespace ptrack::dsp
