// Public result and configuration types of the PTrack core.

#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

namespace ptrack::core {

/// Gait classification of one candidate cycle (Fig. 4 outcome).
enum class GaitType {
  Walking,       ///< offset test passed: arm-swing walking
  Stepping,      ///< stepping test passed: rigid-arm walking
  Interference,  ///< neither: excluded from counting ("Others")
};

inline std::string_view to_string(GaitType t) {
  switch (t) {
    case GaitType::Walking: return "walking";
    case GaitType::Stepping: return "stepping";
    case GaitType::Interference: return "others";
  }
  return "?";
}

/// One counted step with its estimated stride.
struct StepEvent {
  double t = 0.0;        ///< completion time (s)
  double stride = 0.0;   ///< estimated stride (m); 0 when unavailable
  GaitType type = GaitType::Walking;
  /// Fraction of the step's half-cycle covered by untouched (neither
  /// repaired nor masked) samples; 1 on a clean trace.
  double quality = 1.0;
  /// True when the majority of the step's half-cycle was hard-masked: the
  /// step is still reported, but it stands on reconstructed ground.
  bool degraded = false;
};

/// One analyzed candidate gait cycle (diagnostics; Fig. 6(b) breakdown).
struct CycleRecord {
  std::size_t begin = 0;  ///< first sample index of the cycle
  std::size_t mid = 0;    ///< half-cycle boundary (middle step peak)
  std::size_t end = 0;    ///< one past the last sample index
  GaitType type = GaitType::Interference;
  double offset = 0.0;    ///< Eq. (1) offset of the cycle
  double half_cycle_corr = 0.0;  ///< C at the half-cycle lag
  bool phase_ok = false;  ///< quarter-period phase gate result
  double quality = 1.0;   ///< fraction of the cycle's samples left untouched
};

/// Condensed per-trace signal-quality record (mirrors imu::QualityReport
/// without the per-sample flag vector; fractions are over the trace).
struct SignalQuality {
  double clean_fraction = 1.0;     ///< samples passed through untouched
  double repaired_fraction = 0.0;  ///< samples gap-filled by interpolation
  double masked_fraction = 0.0;    ///< samples replaced by the neutral value
  std::size_t dropout_samples = 0;
  std::size_t saturated_samples = 0;
  std::size_t spike_samples = 0;
  std::size_t nonfinite_samples = 0;

  [[nodiscard]] bool degraded() const { return clean_fraction < 1.0; }
};

/// Step-counter configuration. Defaults follow the paper where it gives
/// values (delta = 0.0325) and sensible engineering choices elsewhere; the
/// ablation benches sweep the interesting ones.
struct StepCounterConfig {
  double lowpass_hz = 5.0;       ///< analysis band for projected signals
  /// Trailing axis window (s): each 1 s grid block's up and anterior axes
  /// are fit over the window of this length, cut to whole blocks, that
  /// ends at the block's end (core/frontend.hpp); at least one block.
  /// Shorter windows keep the anterior channel faithful on routes with
  /// turns.
  double anterior_window_s = 20.0;
  double delta = 0.0325;         ///< offset threshold (paper SIII-B1)
  std::size_t streak = 3;        ///< consecutive confirmations for stepping
  double phase_tolerance = 0.35; ///< relative error allowed vs quarter period
  double min_step_interval_s = 0.35;  ///< segmentation peak spacing
  double max_step_interval_s = 1.20;  ///< reject slower candidates
  double min_cycle_prominence = 0.5;  ///< m/s^2, segmentation peaks
  bool use_weighting = true;     ///< w(nv) term of Eq. (1) (ablation)
  bool use_phase_gate = true;    ///< phase-difference test (ablation)

  // Critical-point extraction: the query channel (vertical) keeps only
  // well-formed turning points; the match channel (anterior) exposes its
  // turning points and zeros. Fractions are relative to the cycle's
  // peak-to-peak span (prominence) or RMS (hysteresis).
  double query_prominence = 0.12;
  double query_abs_prominence = 0.35;  ///< m/s^2 noise/sway floor
  double match_prominence = 0.20;
  double match_abs_prominence = 0.15;  ///< m/s^2
  double match_hysteresis = 0.50;
  double weight_cap = 0.35;      ///< bound on w(nv) (quiet-gap guard)
  /// Anterior-energy gate (m/s^2 RMS): genuine walking always drives the
  /// anterior channel hard (arm swing + body speed oscillation). When the
  /// cycle's anterior RMS falls below this floor the channel is noise, its
  /// critical points are meaningless, and the offset is forced to 0 so the
  /// cycle cannot pass as walking (e.g. photo-taking with the arm
  /// horizontal, where the tangential motion is almost purely vertical).
  double min_anterior_rms = 0.30;
  /// Also query anterior turning points against the vertical critical set
  /// and add both sums (symmetric form of Eq. (1)); strengthens the signal
  /// when one channel's critical set is sparse.
  bool symmetric_offset = false;

  /// Walking hysteresis: once >= `walking_streak_open` consecutive cycles
  /// pass the strict offset test, up to `walking_hysteresis_credit`
  /// borderline cycles (offset > walking_hysteresis_factor * delta) in a
  /// row are still accepted as walking. Interference never opens the gate
  /// because it never produces the strict streak. (ablation)
  bool walking_hysteresis = true;
  double walking_hysteresis_factor = 0.5;
  std::size_t walking_streak_open = 2;
  std::size_t walking_hysteresis_credit = 2;
};

/// User profile for stride estimation (the paper's m and l plus the Eq. (2)
/// calibration factor k).
struct StrideProfile {
  double arm_length = 0.70;  ///< m
  double leg_length = 0.90;  ///< l
  double k = 2.0;            ///< calibration factor of Eq. (2)
};

/// Stride-estimator configuration.
struct StrideConfig {
  StrideProfile profile{};
  /// Median filter over the per-step stride sequence (odd window; <= 1
  /// disables). A walker's stride changes slowly, so a short median knocks
  /// out per-cycle geometry outliers. (ablation)
  std::size_t smooth_window = 5;
  /// Swing-energy routing threshold (m/s): the stepping direct-bounce
  /// readout is only valid for a rigid arm, and a rigid arm cannot produce
  /// a large anterior velocity. Cycles whose anterior-velocity amplitude
  /// exceeds this use the walking geometry regardless of the counter's
  /// gait label. (ablation)
  double swing_velocity_threshold = 0.7;
};

/// Wall-clock cost of each pipeline stage for one trace (µs). Filled by
/// PTrack::process when the observability layer is compiled in and enabled
/// at runtime; all zeros otherwise. Surfaced as the "timing" block of the
/// CLI's per-trace JSON.
struct StageTiming {
  double quality_us = 0.0;  ///< signal-quality detection + repair
  double project_us = 0.0;  ///< gravity/anterior projection + filtering
  double count_us = 0.0;    ///< cycle segmentation + gait classification
  double stride_us = 0.0;   ///< stride estimation, fill and smoothing
  double total_us = 0.0;    ///< whole process() call (>= sum of stages)
};

/// Full result of processing a trace.
struct TrackResult {
  std::size_t steps = 0;
  std::vector<StepEvent> events;
  std::vector<CycleRecord> cycles;
  SignalQuality quality{};  ///< trace-level signal quality (1.0/clean default)
  StageTiming timing{};     ///< per-stage wall-clock cost (zeros when obs off)

  /// Total walked distance (sum of per-step strides).
  [[nodiscard]] double distance() const {
    double d = 0.0;
    for (const StepEvent& e : events) d += e.stride;
    return d;
  }

  /// Steps whose half-cycle was majority-masked (reported but untrusted).
  [[nodiscard]] std::size_t degraded_steps() const {
    std::size_t n = 0;
    for (const StepEvent& e : events) n += e.degraded ? 1 : 0;
    return n;
  }
};

}  // namespace ptrack::core
