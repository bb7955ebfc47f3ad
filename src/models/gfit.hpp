// Commercial-style threshold peak-detection pedometer.
//
// This models the built-in counters the paper measures in Fig. 1: Google
// Fit on the LG Urbane ("Watch"), the Mi Band ("Band") and the two iPhone
// pedometer apps ("Coprocessor"/"Software"). All follow the same recipe —
// low-pass the acceleration magnitude, find peaks above an adaptive
// threshold with a refractory interval — and differ only in tuning. They
// have no interference rejection at all, which is exactly the vulnerability
// Figs. 1 and 7 demonstrate.

#pragma once

#include <string>

#include "models/step_counter.hpp"

namespace ptrack::models {

/// Tuning of a threshold peak counter.
struct PeakCounterConfig {
  std::string name = "GFit";
  double lowpass_hz = 3.0;        ///< magnitude low-pass cutoff
  double min_peak_interval_s = 0.28;  ///< refractory period between steps
  double threshold_factor = 0.6;  ///< peak prominence as a fraction of the
                                  ///< window's acceleration std-dev
  double min_abs_prominence = 0.35;  ///< absolute floor (m/s^2)
};

/// The counter itself.
class PeakCounter final : public IStepCounter {
 public:
  explicit PeakCounter(PeakCounterConfig config = {});

  [[nodiscard]] std::string_view name() const override { return config_.name; }
  StepDetection count_steps(const imu::Trace& trace) override;

  [[nodiscard]] const PeakCounterConfig& config() const { return config_; }

 private:
  PeakCounterConfig config_;
};

/// Preset tunings used by the figure benches.
PeakCounterConfig gfit_watch_config();   ///< Google Fit on the smartwatch
PeakCounterConfig miband_config();       ///< Mi Band wrist band
PeakCounterConfig phone_coprocessor_config();  ///< iPhone with M-coprocessor
PeakCounterConfig phone_software_config();     ///< software-only phone app

}  // namespace ptrack::models
