#include "imu/quality.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::imu {

namespace {

void set_flag(std::uint8_t& f, std::uint8_t bit) {
  f = static_cast<std::uint8_t>(f | bit);
}

bool finite_and_bounded(double v, double limit) {
  return std::isfinite(v) && std::abs(v) <= limit;
}

bool sample_physical(const Sample& s) {
  return finite_and_bounded(s.accel.x, kNonphysicalAccel) &&
         finite_and_bounded(s.accel.y, kNonphysicalAccel) &&
         finite_and_bounded(s.accel.z, kNonphysicalAccel) &&
         finite_and_bounded(s.gyro.x, kNonphysicalGyro) &&
         finite_and_bounded(s.gyro.y, kNonphysicalGyro) &&
         finite_and_bounded(s.gyro.z, kNonphysicalGyro);
}

double max_abs_accel(const Sample& s) {
  return std::max({std::abs(s.accel.x), std::abs(s.accel.y),
                   std::abs(s.accel.z)});
}

double max_abs_gyro(const Sample& s) {
  return std::max({std::abs(s.gyro.x), std::abs(s.gyro.y),
                   std::abs(s.gyro.z)});
}

/// Excursion-and-return: `cur` departs from BOTH neighbors by more than
/// `delta`, in the same direction. A genuine fast motion moves the
/// neighbors with it.
bool excursion(double prev, double cur, double next, double delta) {
  const double d_prev = cur - prev;
  const double d_next = cur - next;
  return std::abs(d_prev) > delta && std::abs(d_next) > delta &&
         d_prev * d_next > 0.0;
}

/// One point of the cubic Hermite gap bridge: endpoint values p0/p1,
/// endpoint tangents m0/m1 (per-sample slopes), gap span in samples and
/// the normalized position u in (0, 1).
double hermite_point(double p0, double m0, double p1, double m1, double span,
                     double u) {
  const double u2 = u * u;
  const double u3 = u2 * u;
  const double h00 = 2.0 * u3 - 3.0 * u2 + 1.0;
  const double h10 = u3 - 2.0 * u2 + u;
  const double h01 = -2.0 * u3 + 3.0 * u2;
  const double h11 = u3 - u2;
  return h00 * p0 + h10 * (m0 * span) + h01 * p1 + h11 * (m1 * span);
}

void validate(const QualityConfig& cfg) {
  expects(cfg.min_dropout_run >= 1, "quality: min_dropout_run >= 1");
  expects(cfg.spike_delta > 0.0, "quality: spike_delta > 0");
  expects(cfg.min_usable_fraction >= 0.0 && cfg.min_usable_fraction <= 1.0,
          "quality: min_usable_fraction in [0,1]");
}

}  // namespace

// ---------------------------------------------------------------------------
// IncrementalQuality
// ---------------------------------------------------------------------------

IncrementalQuality::IncrementalQuality(double fs, QualityConfig cfg)
    : cfg_(cfg), fs_(fs) {
  expects(fs > 0.0, "IncrementalQuality: fs > 0");
  validate(cfg_);
  max_fill_ = static_cast<std::size_t>(std::llround(kMaxFillS * fs_));
  pending_.reserve(latency_bound() + 1);
}

// detect_on_push, is_spike, emit and append are the per-sample path of
// every push; `inline` lets the compiler fold them into push_into.
inline void IncrementalQuality::detect_on_push(const Sample& s,
                                               std::uint8_t& flags) {
  if (!sample_physical(s)) set_flag(flags, kFlagNonFinite);
  const bool cur_nonfinite = (flags & kFlagNonFinite) != 0;

  // Dropout: extend or reset the current held run; retro-flag the run's
  // earlier members (still pending by the finalization rules) the moment
  // it reaches the minimum length.
  const bool held = have_prev_ && !cur_nonfinite && !prev_nonfinite_ &&
                    s.accel == prev_raw_.accel && s.gyro == prev_raw_.gyro;
  if (held) {
    ++held_run_;
    if (held_run_ >= cfg_.min_dropout_run) {
      set_flag(flags, kFlagDropout);
      if (held_run_ == cfg_.min_dropout_run) {
        const std::size_t retro = cfg_.min_dropout_run - 1;
        PTRACK_CHECK_MSG(pending_.size() >= retro,
                         "IncrementalQuality: open held run still pending");
        for (std::size_t k = pending_.size() - retro; k < pending_.size();
             ++k) {
          set_flag(pending_[k].flags, kFlagDropout);
        }
      }
    }
  } else {
    held_run_ = 0;
  }
  prev_raw_ = s;
  prev_nonfinite_ = cur_nonfinite;
  have_prev_ = true;

  // Saturation. Explicit rails flag immediately; the auto rail is a running
  // maximum that confirms once enough samples have dwelled at it, then
  // retro-flags whatever part of the plateau is still pending. A held
  // repeat is one reading, not a dwell: a dropout holding at the running
  // maximum must not confirm it as a rail.
  if (!cur_nonfinite) {
    const double m = max_abs_accel(s);
    if (cfg_.saturation_limit > 0.0) {
      if (m >= cfg_.saturation_limit * (1.0 - 1e-9)) {
        set_flag(flags, kFlagSaturated);
      }
    } else {
      if (m > rail_) {
        rail_ = m;
        rail_count_ = 1;
      } else if (!held && m >= rail_ * (1.0 - 1e-12)) {
        ++rail_count_;
      }
      if (rail_ > 1.2 * kGravity &&
          rail_count_ >= kMinSaturationPlateau &&
          rail_ > confirmed_rail_) {
        confirmed_rail_ = rail_;
        const double thr = confirmed_rail_ * (1.0 - 1e-9);
        for (Pending& p : pending_) {
          if ((p.flags & kFlagNonFinite) == 0 && max_abs_accel(p.s) >= thr) {
            set_flag(p.flags, kFlagSaturated);
          }
        }
      }
      if (confirmed_rail_ > 0.0 &&
          m >= confirmed_rail_ * (1.0 - 1e-9)) {
        set_flag(flags, kFlagSaturated);
      }
    }
    if (cfg_.gyro_saturation_limit > 0.0 &&
        max_abs_gyro(s) >= cfg_.gyro_saturation_limit * (1.0 - 1e-9)) {
      set_flag(flags, kFlagSaturated);
    }
  }
}

inline bool IncrementalQuality::is_spike(const Sample& left,
                                         const Sample& center,
                                         const Sample& right) const {
  const double a = cfg_.spike_delta;
  const double g = kGyroSpikeDelta;
  return excursion(left.accel.x, center.accel.x, right.accel.x, a) ||
         excursion(left.accel.y, center.accel.y, right.accel.y, a) ||
         excursion(left.accel.z, center.accel.z, right.accel.z, a) ||
         excursion(left.gyro.x, center.gyro.x, right.gyro.x, g) ||
         excursion(left.gyro.y, center.gyro.y, right.gyro.y, g) ||
         excursion(left.gyro.z, center.gyro.z, right.gyro.z, g);
}

void IncrementalQuality::evaluate_spike_before_last() {
  // The excursion-and-return test needs both neighbors, so the candidate is
  // the second-newest pending sample; its left neighbor may already have
  // been finalized (raw values). Held samples can never spike (d_prev ==
  // 0), so a dropout flag arriving later cannot contradict this.
  if (pending_.size() < 2) return;
  Pending& center = pending_[pending_.size() - 2];
  if (center.flags != kFlagClean) return;
  const Pending& right = pending_.back();
  const Sample* left = nullptr;
  std::uint8_t left_flags = kFlagClean;
  if (pending_.size() >= 3) {
    left = &pending_[pending_.size() - 3].s;
    left_flags = pending_[pending_.size() - 3].flags;
  } else if (counts_.emitted > 0) {
    left = &last_emitted().raw;
    left_flags = last_emitted().flags;
  } else {
    return;  // stream-start sample: no left neighbor, never a spike
  }
  if ((left_flags | right.flags) & kFlagNonFinite) return;
  if (is_spike(*left, center.s, right.s)) set_flag(center.flags, kFlagSpike);
}

// The neutral hold value for masked runs: the running mean clean sample.
// With any gravity-bearing stream that is approximately the gravity vector,
// i.e. a stationary device, so masked stretches cannot fabricate steps.
Sample IncrementalQuality::neutral_sample() const {
  Sample s;
  if (clean_count_ > 0) {
    s.accel = accel_sum_ / static_cast<double>(clean_count_);
    s.gyro = gyro_sum_ / static_cast<double>(clean_count_);
  } else {
    s.accel = {0.0, 0.0, kGravity};
    s.gyro = {};
  }
  return s;
}

namespace {

inline void append(std::vector<RepairedSample>& out, const Sample& s,
                   std::uint8_t flags) {
  out.push_back({s, flags});
}

void append(SampleRing& out, const Sample& s, std::uint8_t flags) {
  out.push(s, flags);
}

}  // namespace

template <typename Out>
inline void IncrementalQuality::emit(const Sample& repaired,
                                     const Sample& raw, std::uint8_t flags,
                                     Out& out) {
  append(out, repaired, flags);
  if (flags == kFlagClean) {
    accel_sum_ += raw.accel;
    gyro_sum_ += raw.gyro;
    ++clean_count_;
  } else {
    if (flags & kFlagDropout) ++counts_.dropout;
    if (flags & kFlagSaturated) ++counts_.saturated;
    if (flags & kFlagSpike) ++counts_.spike;
    if (flags & kFlagNonFinite) ++counts_.nonfinite;
    if (flags & kFlagRepaired) ++counts_.repaired;
    if (flags & kFlagMasked) ++counts_.masked;
  }
  recent_[counts_.emitted & 1] = {raw, flags};
  ++counts_.emitted;
}

template <typename Out>
void IncrementalQuality::fill_and_emit(std::size_t run, Out& out) {
  // Cubic Hermite bridge: p0 = the last finalized sample (clean by run
  // maximality), p1 = the closing clean sample, tangents one-sided where
  // the outer neighbors are clean. For a clipped peak the endpoint slopes
  // point "into" the gap, so the curve bulges beyond the endpoints — a
  // first-order reconstruction of the cut-off extremum. The left context is
  // copied before the loop: emit() overwrites recent_, and every sample of
  // the run bridges from the same endpoints.
  const Sample p0s = last_emitted().raw;
  const Sample outer = second_last_emitted().raw;
  const Sample& p1s = pending_[run].s;
  const bool m0_clean =
      counts_.emitted >= 2 && second_last_emitted().flags == kFlagClean;
  const bool m1_clean = run + 1 < pending_.size() &&
                        pending_[run + 1].flags == kFlagClean;
  const auto span = static_cast<double>(run + 1);
  for (std::size_t i = 0; i < run; ++i) {
    Sample repaired = pending_[i].s;
    for (double Vec3::*comp : {&Vec3::x, &Vec3::y, &Vec3::z}) {
      for (Vec3 Sample::*channel : {&Sample::accel, &Sample::gyro}) {
        const double p0 = p0s.*channel.*comp;
        const double p1 = p1s.*channel.*comp;
        const double secant = (p1 - p0) / span;
        const double m0 = m0_clean ? p0 - outer.*channel.*comp : secant;
        const double m1 =
            m1_clean ? pending_[run + 1].s.*channel.*comp - p1 : secant;
        const double u = static_cast<double>(i + 1) / span;
        repaired.*channel.*comp = hermite_point(p0, m0, p1, m1, span, u);
      }
    }
    const auto flags =
        static_cast<std::uint8_t>(pending_[i].flags | kFlagRepaired);
    emit(repaired, pending_[i].s, flags, out);
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(run));
}

template <typename Out>
void IncrementalQuality::mask_and_emit(std::size_t run, Out& out) {
  const Sample neutral = neutral_sample();
  for (std::size_t i = 0; i < run; ++i) {
    Sample repaired = pending_[i].s;
    repaired.accel = neutral.accel;
    repaired.gyro = neutral.gyro;
    const auto flags =
        static_cast<std::uint8_t>(pending_[i].flags | kFlagMasked);
    emit(repaired, pending_[i].s, flags, out);
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(run));
}

template <typename Out>
void IncrementalQuality::finalize_ready(Out& out, bool flushing) {
  while (!pending_.empty()) {
    const std::size_t n = pending_.size();
    // Keep one sample back so its spike test has a right neighbor.
    if (!flushing && n < 2) break;
    if (pending_.front().flags == kFlagClean) {
      // A trailing held run shorter than the dropout minimum may still be
      // retro-flagged; hold its members back.
      if (!flushing && held_run_ > 0 && held_run_ < cfg_.min_dropout_run &&
          n <= held_run_) {
        break;
      }
      const Pending front = pending_.front();
      pending_.erase(pending_.begin(), pending_.begin() + 1);
      emit(front.s, front.s, front.flags, out);
      continue;
    }
    // Maximal flagged run at the head.
    std::size_t run = 1;
    while (run < n && pending_[run].flags != kFlagClean) ++run;
    const bool closed = run < n;
    if (!closed) {
      // Open run: a run already longer than the fill limit will be masked
      // no matter how it ends (masking goes by total length); emit it now
      // to keep the latency bound. Otherwise wait for the closing sample.
      if (flushing || run > max_fill_) {
        mask_and_emit(run, out);
        continue;
      }
      break;
    }
    // Closed run [0, run); pending_[run] is the clean right endpoint. The
    // right tangent inspects the flags of pending_[run + 1], whose spike
    // bit settles only once pending_[run + 2] has arrived.
    if (!flushing && n < run + 3) break;
    // The left endpoint must be a clean finalized sample: absent at stream
    // start, and non-clean when this run is the tail of a longer run whose
    // head was already masked.
    const bool fillable = run <= max_fill_ && counts_.emitted > 0 &&
                          last_emitted().flags == kFlagClean;
    if (fillable) {
      fill_and_emit(run, out);
    } else {
      mask_and_emit(run, out);
    }
  }
}

template <typename Out>
void IncrementalQuality::push_into(const Sample& s, Out& out) {
  if (!cfg_.enabled) {
    append(out, s, kFlagClean);
    ++counts_.emitted;
    return;
  }
  std::uint8_t flags = kFlagClean;
  detect_on_push(s, flags);
  // Common case: a clean newcomer after one clean held-back sample, outside
  // any held run. The held-back sample's spike test (left context = the
  // last emitted sample) is all that decides it; when it passes, the
  // sample is final and the newcomer is held back in its place — what the
  // general path below concludes, without its bookkeeping.
  if (flags == kFlagClean && held_run_ == 0 && pending_.size() == 1 &&
      pending_.front().flags == kFlagClean) {
    Pending& held = pending_.front();
    const bool spike = counts_.emitted > 0 &&
                       (last_emitted().flags & kFlagNonFinite) == 0 &&
                       is_spike(last_emitted().raw, held.s, s);
    if (!spike) {
      emit(held.s, held.s, kFlagClean, out);
      held.s = s;
      return;
    }
  }
  pending_.push_back({s, flags});
  evaluate_spike_before_last();
  finalize_ready(out, false);
  PTRACK_CHECK_MSG(pending_.size() <= latency_bound(),
                   "IncrementalQuality: bounded hold-back");
}

template <typename Out>
void IncrementalQuality::flush_into(Out& out) {
  if (!cfg_.enabled) return;
  finalize_ready(out, true);
  PTRACK_CHECK_MSG(pending_.empty(), "IncrementalQuality: flush drains all");
}

void IncrementalQuality::push(const Sample& s,
                              std::vector<RepairedSample>& out) {
  push_into(s, out);
}

void IncrementalQuality::push(const Sample& s, SampleRing& out) {
  push_into(s, out);
}

void IncrementalQuality::flush(std::vector<RepairedSample>& out) {
  flush_into(out);
}

void IncrementalQuality::flush(SampleRing& out) { flush_into(out); }

namespace {

/// One whole trace as a stream that ends: push per sample, then flush.
template <typename Out>
QualityReport run_trace(const Trace& trace, const QualityConfig& cfg,
                        Out& out) {
  PTRACK_OBS_SPAN("ptrack.imu.quality");
  IncrementalQuality engine(trace.fs(), cfg);
  for (const Sample& s : trace.samples()) engine.push(s, out);
  engine.flush(out);

  const IncrementalQualityCounts& c = engine.counts();
  QualityReport report;
  report.dropout_samples = c.dropout;
  report.saturated_samples = c.saturated;
  report.spike_samples = c.spike;
  report.nonfinite_samples = c.nonfinite;
  report.repaired_samples = c.repaired;
  report.masked_samples = c.masked;
  if (c.emitted > 0) {
    const auto n = static_cast<double>(c.emitted);
    report.repaired_fraction = static_cast<double>(c.repaired) / n;
    report.masked_fraction = static_cast<double>(c.masked) / n;
    report.clean_fraction =
        1.0 - report.repaired_fraction - report.masked_fraction;
    // Usability gates on *information content*: held or clipped stretches
    // are still a (degraded) record of real motion and repair recovers
    // them, but non-finite/nonphysical cells are pure garbage. A trace
    // dominated by garbage has nothing to track.
    report.usable = (n - static_cast<double>(c.nonfinite)) / n >=
                    cfg.min_usable_fraction;
  }

  PTRACK_COUNT("ptrack.imu.quality.traces");
  PTRACK_COUNT_N("ptrack.imu.quality.samples_repaired", c.repaired);
  PTRACK_COUNT_N("ptrack.imu.quality.samples_masked", c.masked);
  if (c.repaired + c.masked > 0) {
    PTRACK_COUNT("ptrack.imu.quality.traces_degraded");
  }
  return report;
}

}  // namespace

QualityResult assess_and_repair(const Trace& trace, const QualityConfig& cfg) {
  std::vector<RepairedSample> out;
  out.reserve(trace.size());
  QualityResult result;
  result.report = run_trace(trace, cfg, out);
  std::vector<Sample> samples;
  samples.reserve(out.size());
  result.report.flags.reserve(out.size());
  for (const RepairedSample& r : out) {
    samples.push_back(r.sample);
    result.report.flags.push_back(r.flags);
  }
  result.trace = Trace(trace.fs(), std::move(samples));
  return result;
}

QualityReport repair_into(const Trace& trace, const QualityConfig& cfg,
                          SampleRing& ring) {
  return run_trace(trace, cfg, ring);
}

}  // namespace ptrack::imu
