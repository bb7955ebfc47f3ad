#include "core/gait_id.hpp"

#include <cmath>
#include <cstdlib>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/critical_points.hpp"
#include "core/offset_metric.hpp"
#include "dsp/correlate.hpp"
#include "obs/metrics.hpp"

namespace ptrack::core {

namespace {

/// Absolute prominence floors (m/s^2) under the relative ones of the
/// critical-point extraction: the query channel's noise/sway floor and the
/// match channel's.
constexpr double kQueryAbsProminence = 0.35;
constexpr double kMatchAbsProminence = 0.15;
/// Relative error of the vertical/anterior lag allowed against the quarter
/// period by the phase gate.
constexpr double kPhaseTolerance = 0.35;
/// Walking hysteresis: once >= kWalkingStreakOpen consecutive cycles pass
/// the strict offset test, up to kWalkingHysteresisCredit borderline cycles
/// (offset > kWalkingHysteresisFactor * delta) in a row still count as
/// walking.
constexpr std::size_t kWalkingStreakOpen = 2;
constexpr std::size_t kWalkingHysteresisCredit = 2;
constexpr double kWalkingHysteresisFactor = 0.5;

}  // namespace

CycleAnalysis analyze_cycle(std::span<const double> vertical,
                            std::span<const double> anterior,
                            const StepCounterConfig& cfg) {
  expects(vertical.size() == anterior.size(), "analyze_cycle: equal sizes");
  expects(vertical.size() >= 8, "analyze_cycle: >= 8 samples");
  const std::size_t n = vertical.size();

  CycleAnalysis out;

  // Anterior-energy gate: a noise-floor anterior channel has no meaningful
  // critical points; force synchrony so the cycle falls through to the
  // stepping test (which it then fails on the phase gate). stddev ==
  // rms-of-demeaned term for term (same mean, same squared deviations, same
  // summation order), without materializing the demeaned copy.
  if (stats::stddev(anterior) < cfg.min_anterior_rms) {
    out.offset = 0.0;
    out.half_cycle_corr = dsp::autocorr_at(anterior, n / 2);
    out.phase_ok = false;
    return out;
  }

  // Query points: vertical turning points. Match targets: anterior turning
  // points and zeros (the latter capture the paper's "crossing points").
  CriticalPointOptions qopt;
  qopt.prominence_fraction = cfg.query_prominence;
  qopt.min_abs_prominence = kQueryAbsProminence;
  CriticalPointOptions mopt;
  mopt.prominence_fraction = cfg.match_prominence;
  mopt.min_abs_prominence = kMatchAbsProminence;
  mopt.hysteresis_fraction = cfg.match_hysteresis;
  // Reused per-thread point buffers: analyze_cycle runs for every candidate
  // cycle of every hop, so the four point sets must not churn the heap.
  thread_local std::vector<CriticalPoint> vq;
  thread_local std::vector<CriticalPoint> am;
  critical_points_into(vertical, qopt, /*include_zeros=*/false, vq);
  critical_points_into(anterior, mopt, /*include_zeros=*/true, am);
  out.offset = cycle_offset(vq, am, n, cfg.use_weighting);
  if (cfg.symmetric_offset) {
    thread_local std::vector<CriticalPoint> aq;
    thread_local std::vector<CriticalPoint> vm;
    critical_points_into(anterior, qopt, /*include_zeros=*/false, aq);
    critical_points_into(vertical, mopt, /*include_zeros=*/true, vm);
    out.offset =
        0.5 * (out.offset + cycle_offset(aq, vm, n, cfg.use_weighting));
  }

  // Half-cycle autocorrelation of the anterior channel: stepping's anterior
  // pattern repeats every half cycle (once per step), arm gestures repeat
  // every full cycle and flip sign at the half-cycle lag.
  out.half_cycle_corr = dsp::autocorr_at(anterior, n / 2);

  // Quarter-period phase gate: body vertical and anterior oscillations (both
  // at the step period n/2) are offset by a quarter of that period (n/8).
  // Rigid motions are in phase (lag 0) or antiphase (lag n/4).
  if (cfg.use_phase_gate) {
    const std::size_t quarter = n / 8;
    if (quarter >= 2) {
      const int lag = dsp::best_lag(vertical, anterior, n / 4);
      const double err =
          std::abs(std::abs(static_cast<double>(lag)) -
                   static_cast<double>(quarter)) /
          static_cast<double>(quarter);
      out.phase_ok = err <= kPhaseTolerance;
    } else {
      out.phase_ok = false;
    }
  } else {
    out.phase_ok = true;
  }
  return out;
}

GaitIdentifier::GaitIdentifier(StepCounterConfig cfg) : cfg_(cfg) {
  expects(cfg_.streak >= 1, "GaitIdentifier: streak >= 1");
  expects(cfg_.delta > 0.0, "GaitIdentifier: delta > 0");
}

GaitIdentifier::Decision GaitIdentifier::classify(
    const CycleAnalysis& analysis) {
  PTRACK_CHECK_MSG(std::isfinite(analysis.offset) &&
                       std::isfinite(analysis.half_cycle_corr),
                   "GaitIdentifier::classify: finite cycle analysis");
  const Decision d = classify_impl(analysis);
  switch (d.type) {
    case GaitType::Walking: PTRACK_COUNT("ptrack.core.gait.walking"); break;
    case GaitType::Stepping: PTRACK_COUNT("ptrack.core.gait.stepping"); break;
    case GaitType::Interference:
      PTRACK_COUNT("ptrack.core.gait.interference");
      break;
  }
  return d;
}

GaitIdentifier::Decision GaitIdentifier::classify_impl(
    const CycleAnalysis& analysis) {
  PTRACK_CHECK_MSG(std::isfinite(analysis.offset) && analysis.offset >= 0.0,
                   "classify: cycle offset is finite and non-negative");
  // Streak bookkeeping invariants: the stepping streak counter never
  // reaches the confirmation threshold (it resets to 0 on confirmation),
  // and hysteresis credit never exceeds its configured grant.
  PTRACK_CHECK_MSG(streak_count_ < cfg_.streak,
                   "classify: stepping streak counter below threshold");
  PTRACK_CHECK_MSG(walking_credit_ <= kWalkingHysteresisCredit,
                   "classify: hysteresis credit within its grant");
  Decision d;
  if (analysis.offset > cfg_.delta) {
    // Asynchronous critical points: genuine arm-swing walking.
    d.type = GaitType::Walking;
    streak_count_ = 0;
    streak_active_ = false;
    if (++walking_streak_ >= kWalkingStreakOpen) {
      walking_credit_ = kWalkingHysteresisCredit;
    }
    return d;
  }

  // Borderline cycle inside a confirmed walking run: temporal hysteresis
  // (a single gait cycle whose arm/body phases momentarily align should
  // not break an established walk).
  if (cfg_.walking_hysteresis && walking_credit_ > 0 &&
      analysis.offset > kWalkingHysteresisFactor * cfg_.delta) {
    --walking_credit_;
    d.type = GaitType::Walking;
    streak_count_ = 0;
    streak_active_ = false;
    return d;
  }
  walking_streak_ = 0;
  walking_credit_ = 0;

  const bool stepping_like =
      analysis.half_cycle_corr > 0.0 && analysis.phase_ok;
  if (!stepping_like) {
    d.type = GaitType::Interference;
    streak_count_ = 0;
    streak_active_ = false;
    return d;
  }

  if (streak_active_) {
    d.type = GaitType::Stepping;
    return d;
  }

  ++streak_count_;
  if (streak_count_ >= cfg_.streak) {
    // Streak completed: this cycle plus the withheld ones are confirmed
    // (the paper's "+6" with the default streak of 3).
    d.type = GaitType::Stepping;
    d.confirmed_backlog = cfg_.streak - 1;
    streak_active_ = true;
    streak_count_ = 0;
  } else {
    d.type = GaitType::Interference;  // withheld, may be confirmed later
    d.withheld = true;
  }
  return d;
}

void GaitIdentifier::reset() {
  streak_count_ = 0;
  streak_active_ = false;
  walking_streak_ = 0;
  walking_credit_ = 0;
}

}  // namespace ptrack::core
