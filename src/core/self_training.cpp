#include "core/self_training.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/ptrack.hpp"
#include "core/stages.hpp"
#include "core/stride_estimator.hpp"

namespace ptrack::core {

namespace {

/// Search grids (m): m̂ over [kArmMin, kArmMax], l̂ over [kLegMin, kLegMax].
constexpr double kArmMin = 0.50;
constexpr double kArmMax = 0.95;
constexpr double kArmStep = 0.005;
constexpr double kLegMin = 0.65;
constexpr double kLegMax = 1.15;
constexpr double kLegStep = 0.005;
static_assert(kArmMin > 0.0 && kArmMax > kArmMin && kArmStep > 0.0,
              "train_arm_length: valid search range");
/// Objective weights of the invalid-solve fraction and the stepping-bounce
/// anchor term.
constexpr double kInvalidPenalty = 4.0;
constexpr double kSteppingAnchorWeight = 25.0;

struct CycleBank {
  ProjectedChannels projected;
  std::vector<CycleRecord> walking;
  std::vector<CycleRecord> stepping;
};

CycleBank classify_cycles(const imu::Trace& trace,
                          const SelfTrainingConfig& cfg) {
  CycleBank bank;
  // Classify on the same projection the bank keeps: the tracker's over
  // the raw samples.
  bank.projected = project_trace(trace, cfg.counter);
  PTrackConfig pcfg;
  pcfg.counter = cfg.counter;
  pcfg.quality.enabled = false;
  const TrackResult result = PTrack(pcfg).process(trace);
  for (const CycleRecord& c : result.cycles) {
    if (c.type == GaitType::Walking) bank.walking.push_back(c);
    if (c.type == GaitType::Stepping) bank.stepping.push_back(c);
  }
  return bank;
}

/// Objective for one candidate arm length: bounce dispersion + invalid
/// fraction (+ optional stepping anchor).
double arm_objective(const CycleBank& bank, double arm, double k) {
  StrideConfig scfg;
  scfg.profile.arm_length = arm;
  scfg.profile.leg_length = 0.9;  // irrelevant for bounce
  scfg.profile.k = k;
  const StrideEstimator estimator(scfg);

  std::vector<double> bounces;
  std::size_t invalid = 0;
  std::size_t total = 0;
  for (const CycleRecord& c : bank.walking) {
    for (const SweepEstimate& e : estimator.estimate_cycle(bank.projected, c)) {
      ++total;
      if (!e.valid) {
        ++invalid;
        continue;
      }
      bounces.push_back(e.bounce);
    }
  }
  if (bounces.size() < 4) return 1e9;

  const double mean = stats::mean(bounces);
  if (mean <= 1e-4) return 1e9;
  const double cv = stats::stddev(bounces) / mean;
  double objective = cv * cv;
  objective += kInvalidPenalty * static_cast<double>(invalid) /
               static_cast<double>(std::max<std::size_t>(total, 1));

  // Stepping cycles observe the bounce *directly* (the device rides the
  // body), which identifies the arm length: the walking-derived bounce
  // must agree with it. This anchor is the primary signal — the bounce
  // dispersion alone cannot identify m when the geometry is separable.
  if (!bank.stepping.empty()) {
    std::vector<double> direct;
    for (const CycleRecord& c : bank.stepping) {
      for (const SweepEstimate& e :
           estimator.estimate_cycle(bank.projected, c)) {
        if (e.valid) direct.push_back(e.bounce);
      }
    }
    if (direct.size() >= 2) {
      const double anchor = stats::median(direct);
      const double rel = (mean - anchor) / anchor;
      objective += kSteppingAnchorWeight * rel * rel;
    }
  }
  return objective;
}

}  // namespace

// ptrack-lint: allow(entry-check) search range static_asserted above
double train_arm_length(const imu::Trace& trace,
                        const SelfTrainingConfig& cfg) {
  const CycleBank bank = classify_cycles(trace, cfg);
  if (bank.walking.size() < 8) {
    throw Error("train_arm_length: not enough walking cycles (" +
                std::to_string(bank.walking.size()) + " < 8)");
  }

  double best_arm = kArmMin;
  double best_obj = 1e300;
  for (double arm = kArmMin; arm <= kArmMax + 1e-9; arm += kArmStep) {
    const double obj = arm_objective(bank, arm, cfg.k);
    if (obj < best_obj) {
      best_obj = obj;
      best_arm = arm;
    }
  }
  return best_arm;
}

namespace {

/// Distance the *full* pipeline (with gap filling and smoothing) reports
/// for a candidate profile — the quantity the distance anchor constrains.
double pipeline_distance(const imu::Trace& trace, double arm, double leg,
                         const SelfTrainingConfig& cfg) {
  PTrackConfig pcfg;
  pcfg.counter = cfg.counter;
  pcfg.stride.profile = {arm, leg, cfg.k};
  const PTrack tracker(pcfg);
  return tracker.process(trace).distance();
}

}  // namespace

double train_leg_length(const imu::Trace& trace, double arm_length,
                        double known_distance,
                        const SelfTrainingConfig& cfg) {
  expects(arm_length > 0.0, "train_leg_length: arm_length > 0");
  expects(known_distance > 0.0, "train_leg_length: known_distance > 0");

  // The modeled distance is monotone in l (Eq. (2) is increasing in l for
  // fixed b), so a coarse-to-fine scan suffices.
  double best_leg = kLegMin;
  double best_obj = 1e300;
  const double coarse = 8.0 * kLegStep;
  for (double leg = kLegMin; leg <= kLegMax + 1e-9; leg += coarse) {
    const double d = pipeline_distance(trace, arm_length, leg, cfg);
    const double rel = (d - known_distance) / known_distance;
    if (rel * rel < best_obj) {
      best_obj = rel * rel;
      best_leg = leg;
    }
  }
  const double lo = std::max(kLegMin, best_leg - coarse);
  const double hi = std::min(kLegMax, best_leg + coarse);
  for (double leg = lo; leg <= hi + 1e-9; leg += kLegStep) {
    const double d = pipeline_distance(trace, arm_length, leg, cfg);
    const double rel = (d - known_distance) / known_distance;
    if (rel * rel < best_obj) {
      best_obj = rel * rel;
      best_leg = leg;
    }
  }
  return best_leg;
}

SelfTrainingResult self_train(const imu::Trace& trace, double known_distance,
                              const SelfTrainingConfig& cfg) {
  expects(known_distance > 0.0, "self_train: known_distance > 0");
  SelfTrainingResult out;
  out.arm_length = train_arm_length(trace, cfg);
  const CycleBank bank = classify_cycles(trace, cfg);
  out.walking_cycles = bank.walking.size();
  out.arm_objective = arm_objective(bank, out.arm_length, cfg.k);
  out.leg_length = train_leg_length(trace, out.arm_length, known_distance, cfg);
  {
    // Record the achieved distance error at l̂.
    const double d =
        pipeline_distance(trace, out.arm_length, out.leg_length, cfg);
    out.leg_objective = std::abs(d - known_distance) / known_distance;
  }
  return out;
}

}  // namespace ptrack::core
