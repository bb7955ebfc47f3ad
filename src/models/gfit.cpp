#include "models/gfit.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/peaks.hpp"

namespace ptrack::models {

namespace {

/// Adaptive-threshold window (s), the same for every preset.
constexpr double kThresholdWindowS = 4.0;

}  // namespace

PeakCounter::PeakCounter(PeakCounterConfig config)
    : config_(std::move(config)) {
  expects(config_.lowpass_hz > 0.0, "PeakCounter: lowpass_hz > 0");
  expects(config_.min_peak_interval_s > 0.0,
          "PeakCounter: min_peak_interval_s > 0");
}

StepDetection PeakCounter::count_steps(const imu::Trace& trace) {
  StepDetection out;
  if (trace.size() < 8) return out;
  const double fs = trace.fs();

  // Magnitude removes the need for orientation handling; the DC (gravity)
  // component is discarded by demeaning per adaptive window.
  std::vector<double> mag = trace.accel_magnitude();
  mag = dsp::zero_phase_lowpass(mag, std::min(config_.lowpass_hz, 0.45 * fs),
                                fs, 4);

  const auto window = std::max<std::size_t>(
      16, static_cast<std::size_t>(kThresholdWindowS * fs));
  const auto min_dist = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.min_peak_interval_s * fs));

  // Peaks are found globally (block-local detection loses peaks at block
  // edges) and then filtered against a per-block adaptive threshold.
  dsp::PeakOptions opt;
  opt.min_distance = min_dist;
  opt.min_prominence = config_.min_abs_prominence;
  for (std::size_t p : dsp::find_peaks(mag, opt)) {
    const std::size_t begin = (p / window) * window;
    const std::size_t end = std::min(begin + window, mag.size());
    const std::span<const double> block(mag.data() + begin, end - begin);
    const double sd = block.size() >= 8 ? stats::stddev(block) : 0.0;
    const double threshold =
        std::max(config_.min_abs_prominence, config_.threshold_factor * sd);
    if (dsp::peak_prominence(mag, p) >= threshold) {
      out.step_times.push_back(trace[p].t);
    }
  }
  out.count = out.step_times.size();
  return out;
}

PeakCounterConfig gfit_watch_config() {
  PeakCounterConfig c;
  c.name = "GFit";
  return c;
}

PeakCounterConfig miband_config() {
  PeakCounterConfig c;
  c.name = "Band";
  c.lowpass_hz = 3.5;
  c.threshold_factor = 0.55;
  c.min_abs_prominence = 0.30;
  c.min_peak_interval_s = 0.25;
  return c;
}

PeakCounterConfig phone_coprocessor_config() {
  PeakCounterConfig c;
  c.name = "Coprocessor";
  c.lowpass_hz = 2.8;
  c.threshold_factor = 0.7;
  c.min_abs_prominence = 0.45;
  c.min_peak_interval_s = 0.30;
  return c;
}

PeakCounterConfig phone_software_config() {
  PeakCounterConfig c;
  c.name = "Software";
  c.lowpass_hz = 3.2;
  c.threshold_factor = 0.5;
  c.min_abs_prominence = 0.30;
  c.min_peak_interval_s = 0.26;
  return c;
}

}  // namespace ptrack::models
