#include "core/adaptive_delta.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/ptrack.hpp"

namespace ptrack::core {

AdaptiveDelta otsu_threshold(std::span<const double> offsets,
                             std::size_t bins) {
  expects(offsets.size() >= 8, "otsu_threshold: >= 8 offsets");
  expects(bins >= 8, "otsu_threshold: >= 8 bins");

  const double lo = stats::min(offsets);
  const double hi = stats::max(offsets);
  AdaptiveDelta out;
  out.cycles = offsets.size();
  if (hi - lo < 1e-9) {
    out.delta = lo;
    return out;
  }

  // Histogram.
  std::vector<double> hist(bins, 0.0);
  const double scale = static_cast<double>(bins) / (hi - lo);
  for (double v : offsets) {
    auto b = static_cast<std::size_t>((v - lo) * scale);
    hist[std::min(b, bins - 1)] += 1.0;
  }
  const double total = static_cast<double>(offsets.size());

  // Otsu: maximize the between-class variance over split points.
  double sum_all = 0.0;
  for (std::size_t b = 0; b < bins; ++b) {
    sum_all += (static_cast<double>(b) + 0.5) * hist[b];
  }
  double w0 = 0.0;
  double sum0 = 0.0;
  double best_var = -1.0;
  std::size_t best_bin = 0;
  for (std::size_t b = 0; b + 1 < bins; ++b) {
    w0 += hist[b];
    if (w0 == 0.0) continue;
    const double w1 = total - w0;
    if (w1 == 0.0) break;
    sum0 += (static_cast<double>(b) + 0.5) * hist[b];
    const double mu0 = sum0 / w0;
    const double mu1 = (sum_all - sum0) / w1;
    // Between-class variance (bin units): (w0/N)(w1/N)(mu0-mu1)^2.
    const double var = (w0 / total) * (w1 / total) * (mu0 - mu1) * (mu0 - mu1);
    if (var > best_var) {
      best_var = var;
      best_bin = b;
    }
  }

  out.delta = lo + (static_cast<double>(best_bin) + 1.0) / scale;

  // Normalized separation: between-class variance over total variance
  // (both in offset units; convert best_var from bin^2).
  const double total_var = stats::variance(offsets);
  const double between_var = best_var / (scale * scale);
  out.separation =
      total_var > 0.0 ? std::min(1.0, between_var / total_var) : 0.0;
  return out;
}

AdaptiveDelta tune_delta(const imu::Trace& trace,
                         const StepCounterConfig& cfg,
                         double min_separation) {
  expects(min_separation >= 0.0, "tune_delta: min_separation >= 0");
  AdaptiveDelta fallback;
  fallback.delta = cfg.delta;
  if (trace.size() < 16) return fallback;

  // The tracker's own per-cycle offsets, over the raw samples.
  PTrackConfig pcfg;
  pcfg.counter = cfg;
  pcfg.quality.enabled = false;
  std::vector<double> offsets;
  for (const CycleRecord& c : PTrack(pcfg).process(trace).cycles) {
    offsets.push_back(c.offset);
  }
  if (offsets.size() < 8) {
    fallback.cycles = offsets.size();
    return fallback;
  }

  AdaptiveDelta tuned = otsu_threshold(offsets);
  if (tuned.separation < min_separation) {
    // Not bimodal (e.g. a walking-only or interference-only session):
    // keep the configured threshold.
    tuned.delta = cfg.delta;
  }
  return tuned;
}

}  // namespace ptrack::core
