// Montage baseline (Zhang et al., INFOCOM'14) — the state-of-the-art
// design PTrack integrates with and compares against.
//
// Step counting: peaks of the low-passed vertical (gravity-projected)
// acceleration with valley confirmation — a peak only counts when a valley
// of sufficient depth follows within a step interval.
//
// Stride estimation: Montage assumes the device is rigidly attached to the
// body, measures the body's vertical bounce directly by mean-removal double
// integration of the vertical acceleration within each step, and maps it
// through the biomechanical model s = k*sqrt(l^2 - (l-b)^2). On a wrist
// wearable the measured vertical excursion mixes arm and body motion, which
// is precisely the failure Fig. 8(a) quantifies.

#pragma once

#include "models/step_counter.hpp"
#include "models/stride_estimator.hpp"

namespace ptrack::models {

/// Montage step-counter tuning.
struct MontageConfig {
  double lowpass_hz = 3.0;
  double min_step_interval_s = 0.30;
};

/// Montage step counter.
class MontageCounter final : public IStepCounter {
 public:
  explicit MontageCounter(MontageConfig config = {});
  [[nodiscard]] std::string_view name() const override { return "Mtage"; }
  StepDetection count_steps(const imu::Trace& trace) override;

 private:
  MontageConfig config_;
};

/// Montage stride estimator (body-attachment assumption).
class MontageStride final : public IStrideEstimator {
 public:
  /// leg_length: the paper's l; k: Eq. (2) calibration factor.
  MontageStride(double leg_length, double k, MontageConfig config = {});
  [[nodiscard]] std::string_view name() const override { return "Mtage"; }
  std::vector<StrideEstimate> estimate(const imu::Trace& trace) override;

 private:
  double leg_length_;
  double k_;
  MontageConfig config_;
};

}  // namespace ptrack::models
