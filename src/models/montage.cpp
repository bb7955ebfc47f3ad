#include "models/montage.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/integrate.hpp"
#include "dsp/peaks.hpp"
#include "dsp/projection.hpp"

namespace ptrack::models {

namespace {

/// Peak-to-valley depth (m/s^2) a step peak needs to be confirmed.
constexpr double kMinPeakValleyAmplitude = 0.8;

/// Low-passed vertical acceleration of a trace (up positive, gravity
/// removed).
std::vector<double> vertical_accel(const imu::Trace& trace,
                                   double lowpass_hz) {
  const dsp::ProjectedSignal proj =
      dsp::project(trace.accel_axis(0), trace.accel_axis(1),
                   trace.accel_axis(2), trace.fs());
  return dsp::zero_phase_lowpass(
      proj.vertical, std::min(lowpass_hz, 0.45 * trace.fs()), trace.fs(), 4);
}

/// Step peaks with valley confirmation: a peak counts when a valley at
/// least kMinPeakValleyAmplitude below it occurs before the next peak.
std::vector<std::size_t> confirmed_step_peaks(std::span<const double> vert,
                                              double fs,
                                              const MontageConfig& cfg) {
  dsp::PeakOptions opt;
  opt.min_distance = std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg.min_step_interval_s * fs));
  opt.min_prominence = 0.25 * kMinPeakValleyAmplitude;
  if (!vert.empty()) {
    // Montage adapts its detection threshold to the signal level (the
    // paper's "realtime" design); a fixed threshold would double-count
    // vigorous arm swingers.
    opt.min_prominence =
        std::max(opt.min_prominence, 0.45 * stats::stddev(vert));
  }
  const auto peaks = dsp::find_peaks(vert, opt);

  std::vector<std::size_t> confirmed;
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    const std::size_t begin = peaks[i];
    const std::size_t end = i + 1 < peaks.size() ? peaks[i + 1] : vert.size();
    double valley = vert[begin];
    for (std::size_t j = begin; j < end; ++j) valley = std::min(valley, vert[j]);
    if (vert[begin] - valley >= kMinPeakValleyAmplitude) {
      confirmed.push_back(begin);
    }
  }
  return confirmed;
}

}  // namespace

MontageCounter::MontageCounter(MontageConfig config) : config_(config) {
  expects(config_.lowpass_hz > 0.0, "MontageCounter: lowpass_hz > 0");
}

StepDetection MontageCounter::count_steps(const imu::Trace& trace) {
  StepDetection out;
  if (trace.size() < 16) return out;
  const auto vert = vertical_accel(trace, config_.lowpass_hz);
  for (std::size_t p : confirmed_step_peaks(vert, trace.fs(), config_)) {
    out.step_times.push_back(trace[p].t);
  }
  out.count = out.step_times.size();
  return out;
}

MontageStride::MontageStride(double leg_length, double k, MontageConfig config)
    : leg_length_(leg_length), k_(k), config_(config) {
  expects(leg_length > 0.0, "MontageStride: leg_length > 0");
  expects(k > 0.0, "MontageStride: k > 0");
}

std::vector<StrideEstimate> MontageStride::estimate(const imu::Trace& trace) {
  std::vector<StrideEstimate> out;
  if (trace.size() < 16) return out;
  const double fs = trace.fs();
  const auto vert = vertical_accel(trace, config_.lowpass_hz);
  const auto peaks = confirmed_step_peaks(vert, fs, config_);

  // One step spans successive vertical-acceleration peaks. The bounce is the
  // peak-to-peak vertical excursion within the step (valid when the sensor
  // rides on the body; biased on a wrist).
  for (std::size_t i = 0; i + 1 < peaks.size(); ++i) {
    const std::span<const double> seg(vert.data() + peaks[i],
                                      peaks[i + 1] - peaks[i]);
    double bounce = dsp::peak_to_peak_displacement(seg, 1.0 / fs);
    bounce = std::min(bounce, 0.95 * leg_length_);
    const double lb = leg_length_ - bounce;
    const double stride =
        k_ * std::sqrt(std::max(leg_length_ * leg_length_ - lb * lb, 0.0));
    out.push_back({trace[peaks[i + 1]].t, stride});
  }
  return out;
}

}  // namespace ptrack::models
