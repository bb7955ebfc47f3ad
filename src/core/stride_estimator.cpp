#include "core/stride_estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/bounce.hpp"
#include "dsp/integrate.hpp"
#include "dsp/peaks.hpp"

namespace ptrack::core {

StrideEstimator::StrideEstimator(StrideConfig cfg) : cfg_(cfg) {
  expects(cfg_.profile.arm_length > 0.0, "StrideEstimator: arm_length > 0");
  expects(cfg_.profile.leg_length > 0.0, "StrideEstimator: leg_length > 0");
  expects(cfg_.profile.k > 0.0, "StrideEstimator: k > 0");
}

namespace {

// Fused demean + cumtrapz into a reusable buffer: same mean, same
// deviation rounding and same summation order as
// cumtrapz(stats::demeaned(xs), dt), so the result is bit-identical without
// the intermediate demeaned copy.
void demeaned_cumtrapz(std::span<const double> xs, double dt,
                       std::vector<double>& out) {
  out.resize(xs.size());
  if (xs.empty()) return;
  const double m = stats::mean(xs);
  out[0] = 0.0;
  double c_prev = xs[0] - m;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    const double c = xs[i] - m;
    out[i] = out[i - 1] + 0.5 * (c_prev + c) * dt;
    c_prev = c;
  }
}

std::vector<SweepEstimate> materialize(const SweepEstimateSet& set) {
  return {set.span().begin(), set.span().end()};
}

}  // namespace

std::vector<SweepEstimate> StrideEstimator::estimate_cycle(
    const ProjectedChannels& projected, const CycleRecord& cycle) const {
  return estimate_cycle(
      ChannelSpans{projected.vertical, projected.anterior, projected.fs},
      cycle);
}

std::vector<SweepEstimate> StrideEstimator::estimate_cycle(
    const ChannelSpans& channels, const CycleRecord& cycle) const {
  return materialize(estimate_cycle_set(channels, cycle));
}

SweepEstimateSet StrideEstimator::estimate_cycle_set(
    const ChannelSpans& channels, const CycleRecord& cycle) const {
  expects(channels.vertical.size() == channels.anterior.size(),
          "estimate_cycle: equal channel lengths");
  expects(cycle.end <= channels.vertical.size() && cycle.begin < cycle.end,
          "estimate_cycle: cycle within trace");
  if (cycle.type == GaitType::Interference) return {};
  const std::size_t n = cycle.end - cycle.begin;
  if (n < 16) return {};

  // Route by measured swing energy (threshold <= 0 disables the check and
  // trusts the counter's label): the stepping direct-bounce readout assumes
  // a rigid arm, and a rigid arm cannot swing the wrist at walking arm
  // speeds. This protects stride quality against occasional
  // walking<->stepping label confusion.
  if (cfg_.swing_velocity_threshold <= 0.0) {
    return cycle.type == GaitType::Walking ? walking_cycle(channels, cycle)
                                           : stepping_cycle(channels, cycle);
  }
  // Streaming-scalar |velocity| maximum: identical recurrence to the
  // materialized cumtrapz-of-demeaned chain, so the gate decides exactly as
  // before without building the velocity vector.
  const std::span<const double> ant = channels.anterior.subspan(cycle.begin, n);
  const double dt = 1.0 / channels.fs;
  const double m = stats::mean(ant);
  double vmax = 0.0;
  double c_prev = ant[0] - m;
  double v_prev = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    const double c = ant[i] - m;
    v_prev = v_prev + 0.5 * (c_prev + c) * dt;
    vmax = std::max(vmax, std::abs(v_prev));
    c_prev = c;
  }

  if (vmax > cfg_.swing_velocity_threshold) {
    return walking_cycle(channels, cycle);
  }
  if (cycle.type == GaitType::Stepping) {
    return stepping_cycle(channels, cycle);
  }
  // Labeled walking but no swing energy: the geometry solve would divide
  // by a near-zero arm travel; fall back to the direct bounce.
  return stepping_cycle(channels, cycle);
}

SweepEstimateSet StrideEstimator::walking_cycle(
    const ChannelSpans& channels, const CycleRecord& cycle) const {
  const double fs = channels.fs;
  const double dt = 1.0 / fs;
  const std::size_t n = cycle.end - cycle.begin;

  const std::size_t w0 = cycle.begin;
  const std::span<const double> vert = channels.vertical.subspan(w0, n);
  const std::span<const double> ant = channels.anterior.subspan(w0, n);

  // Arm anterior velocity (mean removal: the cycle bounds sit close to arm
  // reversals, so the reconstructed velocity is near zero at both ends).
  // Per-thread buffers: one velocity vector and one crossing list per cycle
  // would otherwise churn the heap on every hop.
  thread_local std::vector<double> vel;
  thread_local std::vector<std::size_t> crossings;
  demeaned_cumtrapz(ant, dt, vel);

  // Sweep boundaries are the arm reversals = zero crossings of the arm's
  // anterior velocity; anchor each boundary on a crossing when one exists
  // nearby, otherwise fall back to the cycle bound.
  double vmax = 0.0;
  for (double v : vel) vmax = std::max(vmax, std::abs(v));
  if (vmax <= 0.0) return {};
  dsp::zero_crossings_into(vel, 0.05 * vmax, crossings);

  std::size_t begin_b = 0;
  std::size_t split = 0;
  std::size_t end_b = n - 1;
  double best_dist = static_cast<double>(n);
  for (std::size_t c : crossings) {
    if (c <= n / 6) {
      begin_b = c;  // crossings are ordered; the last one in range wins
      continue;
    }
    if (c >= n - n / 6) {
      if (end_b == n - 1) end_b = c;  // first one in range wins
      continue;
    }
    const double dist = std::abs(static_cast<double>(c) -
                                 static_cast<double>(n) / 2.0);
    if (dist < best_dist) {
      best_dist = dist;
      split = c;
    }
  }
  // No clean interior reversal: fall back to the geometric midpoint (the
  // cycle's mid step peak is the best prior for the reversal).
  if (split == 0) split = n / 2;

  // First pass: per-sweep measurements. The anterior travel is averaged
  // across the cycle's two sweeps before solving: the body's within-step
  // speed oscillation adds +s*A to the forward sweep's measured travel and
  // -s*A to the backward sweep's (the arm's true travel is the same both
  // ways), so the cycle mean cancels the body term.
  struct SweepMeasure {
    std::size_t end_index = 0;
    double h1 = 0.0;
    double h2 = 0.0;
    double d = 0.0;
  };
  std::array<SweepMeasure, 2> measures{};
  std::size_t n_measures = 0;
  const std::array<std::pair<std::size_t, std::size_t>, 2> sweeps{
      {{begin_b, split}, {split, end_b + 1}}};
  for (const auto& [a, b] : sweeps) {
    if (b - a < 8) continue;

    // Moment (ii): peak arm speed within the sweep = arm vertical.
    std::size_t t2 = a;
    double peak_speed = -1.0;
    for (std::size_t i = a; i < b; ++i) {
      if (std::abs(vel[i]) > peak_speed) {
        peak_speed = std::abs(vel[i]);
        t2 = i;
      }
    }
    // A degenerate peak position means the velocity is monotone across the
    // sweep (split fell on a non-reversal); the sweep midpoint is the best
    // remaining prior for the arm-vertical moment.
    if (t2 <= a + 2 || t2 + 2 >= b) t2 = a + (b - a) / 2;

    // Vertical displacements over the two half-sweeps (downward positive
    // for h1, upward positive for h2 — the Eq. (3)/(4) conventions).
    const std::span<const double> piece1(vert.data() + a, t2 - a + 1);
    const std::span<const double> piece2(vert.data() + t2, b - t2);
    SweepMeasure m;
    m.end_index = b;
    m.h1 = -dsp::net_displacement(piece1, dt);
    m.h2 = dsp::net_displacement(piece2, dt);
    const std::span<const double> sweep_ant(ant.data() + a, b - a);
    m.d = std::abs(dsp::net_displacement(sweep_ant, dt));
    if (m.d <= 1e-4) continue;
    measures[n_measures++] = m;
  }

  if (n_measures == 0) return {};

  // Aggregate the cycle's sweeps into one geometry solve: the two sweeps
  // observe the same arm geometry and the same bounce, so averaging h1, h2
  // and d across them cancels the body's speed-oscillation contamination
  // of d exactly (+s*A forward, -s*A backward) and halves measurement
  // noise. Both steps of the cycle get the cycle bounce.
  double h1 = 0.0;
  double h2 = 0.0;
  double d_cycle = 0.0;
  for (std::size_t i = 0; i < n_measures; ++i) {
    h1 += measures[i].h1;
    h2 += measures[i].h2;
    d_cycle += measures[i].d;
  }
  const double count = static_cast<double>(n_measures);
  h1 /= count;
  h2 /= count;
  d_cycle /= count;

  BounceSolution sol = solve_bounce(h1, h2, d_cycle,
                                    cfg_.profile.arm_length);
  // Plausibility band: geometry solves that pass numerically but land on a
  // physically implausible human bounce are measurement failures (cycle
  // boundaries drifted off the arm reversals); reject so the facade falls
  // back to the carried stride.
  if (sol.bounce < 0.015 || sol.bounce > 0.18) sol.valid = false;
  const double stride = stride_from_bounce(
      sol.bounce, cfg_.profile.leg_length, cfg_.profile.k);

  // Eq. (3)-(5) outputs are lengths: the bounce and stride handed to the
  // facade must be non-negative even when the solve is flagged invalid.
  PTRACK_CHECK_MSG(sol.bounce >= 0.0 && stride >= 0.0,
                   "walking_cycle: bounce and stride are non-negative");
  SweepEstimateSet out;
  for (std::size_t i = 0; i < n_measures; ++i) {
    SweepEstimate est;
    est.t = static_cast<double>(w0 + measures[i].end_index) / fs;
    est.bounce = sol.bounce;
    est.valid = sol.valid;
    est.stride = stride;
    out.push(est);
  }
  return out;
}

SweepEstimateSet StrideEstimator::stepping_cycle(
    const ChannelSpans& channels, const CycleRecord& cycle) const {
  const double fs = channels.fs;
  const double dt = 1.0 / fs;
  SweepEstimateSet out;

  const std::array<std::pair<std::size_t, std::size_t>, 2> steps{
      {{cycle.begin, cycle.mid}, {cycle.mid, cycle.end}}};
  for (const auto& [a, b] : steps) {
    if (b - a < 8) continue;
    SweepEstimate est;
    est.t = static_cast<double>(b) / fs;
    const std::span<const double> seg = channels.vertical.subspan(a, b - a);
    // Device rides the body: the bounce is the vertical peak-to-peak
    // excursion within the step.
    est.bounce = dsp::peak_to_peak_displacement(seg, dt);
    est.valid = est.bounce > 0.0 && est.bounce < cfg_.profile.leg_length;
    est.stride = stride_from_bounce(est.bounce, cfg_.profile.leg_length,
                                    cfg_.profile.k);
    PTRACK_CHECK_MSG(!est.valid || (est.bounce > 0.0 && est.stride > 0.0),
                     "stepping_cycle: valid estimates carry positive lengths");
    out.push(est);
  }
  return out;
}

}  // namespace ptrack::core
