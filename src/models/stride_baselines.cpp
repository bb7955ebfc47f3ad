#include "models/stride_baselines.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/integrate.hpp"
#include "dsp/peaks.hpp"
#include "dsp/projection.hpp"

namespace ptrack::models {

namespace {

struct SteppedSignal {
  dsp::ProjectedSignal proj;
  std::vector<double> vert_lp;
  std::vector<std::size_t> peaks;  ///< step boundaries
};

SteppedSignal split_into_steps(const imu::Trace& trace) {
  SteppedSignal out;
  out.proj = dsp::project(trace.accel_axis(0), trace.accel_axis(1),
                          trace.accel_axis(2), trace.fs());
  out.vert_lp = dsp::zero_phase_lowpass(out.proj.vertical, 3.0, trace.fs(), 4);
  dsp::PeakOptions opt;
  opt.min_distance =
      std::max<std::size_t>(1, static_cast<std::size_t>(0.3 * trace.fs()));
  opt.min_prominence = 0.5;
  out.peaks = dsp::find_peaks(out.vert_lp, opt);
  return out;
}

}  // namespace

EmpiricalStride::EmpiricalStride(double K) : k_(K) {
  expects(K > 0.0, "EmpiricalStride: K > 0");
}

std::vector<StrideEstimate> EmpiricalStride::estimate(const imu::Trace& trace) {
  std::vector<StrideEstimate> out;
  if (trace.size() < 16) return out;
  const SteppedSignal s = split_into_steps(trace);
  for (std::size_t i = 0; i + 1 < s.peaks.size(); ++i) {
    double amax = -1e300;
    double amin = 1e300;
    for (std::size_t j = s.peaks[i]; j < s.peaks[i + 1]; ++j) {
      amax = std::max(amax, s.vert_lp[j]);
      amin = std::min(amin, s.vert_lp[j]);
    }
    const double stride = k_ * std::pow(std::max(amax - amin, 0.0), 0.25);
    out.push_back({trace[s.peaks[i + 1]].t, stride});
  }
  return out;
}

BiomechanicalStride::BiomechanicalStride(double leg_length, double k)
    : leg_length_(leg_length), k_(k) {
  expects(leg_length > 0.0 && k > 0.0, "BiomechanicalStride: positive params");
}

std::vector<StrideEstimate> BiomechanicalStride::estimate(
    const imu::Trace& trace) {
  std::vector<StrideEstimate> out;
  if (trace.size() < 16) return out;
  const double dt = trace.dt();
  const SteppedSignal s = split_into_steps(trace);
  for (std::size_t i = 0; i + 1 < s.peaks.size(); ++i) {
    const std::span<const double> seg(s.vert_lp.data() + s.peaks[i],
                                      s.peaks[i + 1] - s.peaks[i]);
    double bounce = dsp::peak_to_peak_displacement(seg, dt);
    bounce = std::min(bounce, 0.95 * leg_length_);
    const double lb = leg_length_ - bounce;
    const double stride =
        k_ * std::sqrt(std::max(leg_length_ * leg_length_ - lb * lb, 0.0));
    out.push_back({trace[s.peaks[i + 1]].t, stride});
  }
  return out;
}

std::vector<StrideEstimate> IntegralStride::estimate(const imu::Trace& trace) {
  std::vector<StrideEstimate> out;
  if (trace.size() < 16) return out;
  const double dt = trace.dt();
  const SteppedSignal s = split_into_steps(trace);
  for (std::size_t i = 0; i + 1 < s.peaks.size(); ++i) {
    const std::span<const double> seg(s.proj.anterior.data() + s.peaks[i],
                                      s.peaks[i + 1] - s.peaks[i]);
    // Deliberately no mean removal: this is the naive approach.
    const dsp::Kinematics kin = dsp::integrate_twice(seg, dt);
    out.push_back({trace[s.peaks[i + 1]].t, std::abs(kin.position.back())});
  }
  return out;
}

}  // namespace ptrack::models
