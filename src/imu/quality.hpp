// Signal-quality assessment and repair: the detector duals of the fault
// injectors in imu/faults.hpp.
//
// A deployed wearable degrades in mundane ways long before anything is
// adversarial: BLE dropouts arrive as sample-and-hold runs, cheap MEMS
// ranges saturate, transport glitches land as isolated spikes, and
// malformed records carry non-finite or nonphysical values. This module
// detects those shapes in a raw sample stream, repairs what is recoverable
// (short gaps are interpolated; long gaps are hard-masked to a neutral
// stationary value so they cannot fabricate steps), and flags every sample
// so the pipeline can attach a confidence to every step it emits instead
// of silently counting through garbage.
//
// There is one engine, the online IncrementalQuality stage. Streams push
// into it sample by sample; a whole trace is simply a stream that ends
// (assess_and_repair, repair_into), so batch and drained-stream results
// are the same computation.
//
// Duality contract (kept in sync with imu/faults.hpp and exercised by
// tests/test_imu_quality.cpp): every injector's output is detected by the
// corresponding detector at default thresholds, and the detectors stay
// silent on clean synthesized traces.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "imu/sample_ring.hpp"
#include "imu/trace.hpp"

namespace ptrack::imu {

/// Per-sample quality flags (bitmask). Detector bits record *what* was
/// wrong; Repaired/Masked record what the repair pass did about it.
enum SampleFlag : std::uint8_t {
  kFlagClean = 0,
  kFlagDropout = 1u << 0,    ///< inside a sample-and-hold run
  kFlagSaturated = 1u << 1,  ///< at the range-clipping plateau
  kFlagSpike = 1u << 2,      ///< isolated one-sample excursion
  kFlagNonFinite = 1u << 3,  ///< NaN/Inf or nonphysical magnitude
  kFlagRepaired = 1u << 4,   ///< value replaced by gap interpolation
  kFlagMasked = 1u << 5,     ///< value replaced by the neutral hold value
};

/// Detector and repair thresholds. Defaults are deliberately conservative:
/// consecutive samples of a noisy real sensor never repeat exactly, never
/// jump by multiple g within 10 ms, and never dwell at their exact maximum
/// — so a clean trace produces zero flags.
struct QualityConfig {
  /// Master switch: disabled means the engine passes every sample through
  /// as clean (for ablation and repair-off benching).
  bool enabled = true;

  /// A run of >= this many *held* samples (identical accel AND gyro to the
  /// preceding sample) is a dropout.
  std::size_t min_dropout_run = 3;

  /// Known accelerometer full-scale range (m/s^2); samples at the rail are
  /// saturated. 0 = auto-detect a clipping plateau (several samples sitting
  /// exactly at the trace's absolute maximum).
  double saturation_limit = 0.0;
  /// Known gyro full-scale range (rad/s); 0 disables gyro saturation
  /// detection (no auto-detect: wrist rates legitimately dwell near peaks).
  double gyro_saturation_limit = 0.0;
  /// Auto-detect needs at least this many samples at the exact rail.
  std::size_t min_saturation_plateau = 4;

  /// One-sample excursion-and-return beyond this is a spike (m/s^2).
  double spike_delta = 3.0 * kGravity;
  /// Gyro spike threshold (rad/s); a wrist peaks around 10 rad/s.
  double gyro_spike_delta = 25.0;

  /// Accel components beyond this magnitude are transport garbage, not
  /// motion (m/s^2; ~1000 g — no wearable survives that).
  double nonphysical_accel = 1.0e4;
  /// Gyro components beyond this magnitude are garbage (rad/s).
  double nonphysical_gyro = 1.0e4;

  /// Flagged runs up to this long (s) are gap-filled by interpolation;
  /// longer runs are hard-masked: no interpolation can invent half a gait
  /// cycle, and a fabricated bridge would be counted as steps.
  double max_fill_s = 0.25;

  /// Below this fraction of clean-or-repaired samples the trace carries no
  /// usable signal; PTrack::process refuses it (QualityReport::usable).
  double min_usable_fraction = 0.25;
};

/// Per-trace quality assessment. Fractions are over the trace's samples.
struct QualityReport {
  /// Per-sample SampleFlag bits (assess_and_repair only: repair_into leaves
  /// them in the ring).
  std::vector<std::uint8_t> flags;

  std::size_t dropout_samples = 0;
  std::size_t saturated_samples = 0;
  std::size_t spike_samples = 0;
  std::size_t nonfinite_samples = 0;
  std::size_t repaired_samples = 0;
  std::size_t masked_samples = 0;

  double clean_fraction = 1.0;     ///< untouched samples / total
  double repaired_fraction = 0.0;  ///< interpolated samples / total
  double masked_fraction = 0.0;    ///< neutralized samples / total

  /// False when fewer than QualityConfig::min_usable_fraction of the
  /// samples are clean or repaired — the trace is noise, not signal.
  bool usable = true;

  [[nodiscard]] bool any_fault() const {
    return dropout_samples + saturated_samples + spike_samples +
               nonfinite_samples >
           0;
  }
};

/// A repaired trace with its assessment.
struct QualityResult {
  Trace trace;
  QualityReport report;
};

/// Streams a whole trace through one IncrementalQuality (push per sample,
/// then flush) and returns the repaired trace with its per-sample flags:
/// short flagged runs are interpolated (cubic Hermite through the clean
/// neighbors), long runs and runs touching a trace edge are replaced by the
/// running neutral stationary value (mean clean accel ~ gravity, mean clean
/// gyro). Clean samples pass through bit-identical.
QualityResult assess_and_repair(const Trace& trace,
                                const QualityConfig& cfg = {});

/// The same pass appending the finalized samples (with their flags)
/// straight to a ring, as PTrack::process does; the report carries the
/// totals but no per-sample flags.
QualityReport repair_into(const Trace& trace, const QualityConfig& cfg,
                          SampleRing& ring);

/// One finalized sample of the incremental quality stage: repaired values
/// plus the final SampleFlag bits.
struct RepairedSample {
  Sample sample;
  std::uint8_t flags = kFlagClean;
};

/// Cumulative per-flag sample counts emitted by an IncrementalQuality
/// instance (a whole-trace QualityReport is built from them).
struct IncrementalQualityCounts {
  std::size_t emitted = 0;
  std::size_t dropout = 0;
  std::size_t saturated = 0;
  std::size_t spike = 0;
  std::size_t nonfinite = 0;
  std::size_t repaired = 0;
  std::size_t masked = 0;
};

/// Online detect-and-repair stage, the module's one engine. push() ingests
/// one raw sample and appends every sample whose fate is decided
/// (detected, and repaired or masked where flagged) to the caller's
/// output, in stream order; flush() finalizes the held tail at a stream
/// pause or end (the stream may continue afterwards).
///
/// Seeing only the past and a bounded lookahead, it differs from a
/// whole-trace detector (the reference in
/// tests/test_imu_quality_incremental.cpp) in two ways:
///  - the masking neutral and the auto-detected saturation rail are
///    *running* statistics, not whole-trace values; samples at the rail
///    emitted before the plateau confirms keep their flags, and a held
///    repeat never counts toward the plateau;
///  - retroactive flagging reaches only into the pending tail, so a
///    detector bit can differ right at a decision boundary (the repair
///    action itself still matches).
/// A gap fill bridges every sample of a run from the clean sample before
/// it, with the reference's endpoints and tangents.
///
/// Latency: a sample is held back at most latency_bound() samples
/// (~ max_fill_s plus the dropout-run and spike lookaheads; ~0.3 s at
/// 100 Hz with defaults).
///
/// Cost: the common case (a clean newcomer, one clean held-back sample and
/// no held run) is decided directly — the spike test on plain component
/// compares, then the held-back sample is emitted and the newcomer takes
/// its place — without the general finalization loop.
class IncrementalQuality {
 public:
  explicit IncrementalQuality(double fs, QualityConfig cfg = {});

  /// Ingests one raw sample; appends finalized samples (possibly none, or
  /// several when a held run resolves) to `out`.
  void push(const Sample& s, std::vector<RepairedSample>& out);
  /// Same, appending the finalized samples (with their flags) straight to
  /// a ring — the path of StreamingTracker and PTrack::process, without a
  /// staging buffer.
  void push(const Sample& s, SampleRing& out);

  /// Finalizes every pending sample as if the stream ended here (a run
  /// still open is masked, like any run that touches the trace edge).
  void flush(std::vector<RepairedSample>& out);
  void flush(SampleRing& out);

  /// Samples currently held back.
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  /// Upper bound on pending() between calls.
  [[nodiscard]] std::size_t latency_bound() const {
    return max_fill_ + cfg_.min_dropout_run + 4;
  }
  [[nodiscard]] const IncrementalQualityCounts& counts() const {
    return counts_;
  }
  [[nodiscard]] const QualityConfig& config() const { return cfg_; }

 private:
  struct Pending {
    Sample s;               ///< raw values as pushed
    std::uint8_t flags = kFlagClean;
  };
  struct Emitted {
    Sample raw;             ///< pre-repair values (spike/tangent context)
    std::uint8_t flags = kFlagClean;
  };

  template <typename Out>
  void push_into(const Sample& s, Out& out);
  template <typename Out>
  void flush_into(Out& out);
  void detect_on_push(const Sample& s, std::uint8_t& flags);
  [[nodiscard]] bool is_spike(const Sample& left, const Sample& center,
                              const Sample& right) const;
  void evaluate_spike_before_last();
  template <typename Out>
  void finalize_ready(Out& out, bool flushing);
  template <typename Out>
  void emit(const Sample& repaired, const Sample& raw, std::uint8_t flags,
            Out& out);
  template <typename Out>
  void fill_and_emit(std::size_t run, Out& out);
  template <typename Out>
  void mask_and_emit(std::size_t run, Out& out);
  [[nodiscard]] Sample neutral_sample() const;
  /// The most recently emitted sample (requires counts_.emitted >= 1) and
  /// the one before it (requires >= 2).
  [[nodiscard]] const Emitted& last_emitted() const {
    return recent_[(counts_.emitted - 1) & 1];
  }
  [[nodiscard]] const Emitted& second_last_emitted() const {
    return recent_[counts_.emitted & 1];
  }

  QualityConfig cfg_;
  double fs_;
  std::size_t max_fill_;

  // Bounded hold-back buffer (<= latency_bound() entries, reserved at
  // construction): a vector keeps the steady-state push path allocation-free;
  // the head erase is O(latency_bound), i.e. a handful of moves.
  std::vector<Pending> pending_;

  // Held-run (dropout) tracking over the raw stream.
  Sample prev_raw_{};
  bool have_prev_ = false;
  bool prev_nonfinite_ = false;
  std::size_t held_run_ = 0;

  // Auto saturation: running rail + plateau confirmation.
  double rail_ = 0.0;
  std::size_t rail_count_ = 0;
  double confirmed_rail_ = 0.0;

  // Running clean mean (masking neutral).
  Vec3 accel_sum_{};
  Vec3 gyro_sum_{};
  std::size_t clean_count_ = 0;

  // Last two finalized samples: left context for spikes and gap tangents.
  // emit() overwrites the older slot, recent_[counts_.emitted & 1].
  std::array<Emitted, 2> recent_{};

  IncrementalQualityCounts counts_;
};

}  // namespace ptrack::imu
