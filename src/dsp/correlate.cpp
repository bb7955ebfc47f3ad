#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/peaks.hpp"
#include "dsp/simd.hpp"

namespace ptrack::dsp {

namespace {

/// Unbiased normalization of the raw lag sums: the lag-l sum covers n-l
/// terms, the variance n, so rescale — a perfectly periodic signal then
/// scores ~1 at its period even for large lags (PTrack evaluates C at the
/// half-cycle lag, where the biased estimator would cap at 0.5).
double normalize_lag(double raw, std::size_t n, std::size_t lag, double den) {
  const double scale =
      static_cast<double>(n) / static_cast<double>(n - lag);
  return std::clamp(raw * scale / den, -1.0, 1.0);
}

/// Demeaned copy of xs in a per-thread buffer: the lag loops used to
/// recompute xs[i] - m inside every lag's inner loop; subtracting once turns
/// each lag into a plain dot product over the deviations.
std::span<const double> demeaned(std::span<const double> xs, double m) {
  thread_local std::vector<double> devs;
  // ptrack-lint: allow(alloc) per-thread scratch; steady capacity
  devs.resize(xs.size());
  simd::sub_scalar(xs, m, devs);
  return devs;
}

}  // namespace

double autocorr_at(std::span<const double> xs, std::size_t lag) {
  expects(lag < xs.size(), "autocorr_at: lag < size");
  const std::size_t n = xs.size();
  const double m = stats::mean(xs);
  const double den = simd::sumsq_dev(xs, m);
  if (den == 0.0) return 0.0;
  const auto devs = demeaned(xs, m);
  const double num =
      simd::dot(devs.first(n - lag), devs.subspan(lag));
  return normalize_lag(num, n, lag, den);
}

std::vector<double> autocorr(std::span<const double> xs,
                             std::size_t max_lag) {
  expects(max_lag < xs.size(), "autocorr: max_lag < size");
  const std::size_t n = xs.size();
  const double m = stats::mean(xs);
  const double den = simd::sumsq_dev(xs, m);
  std::vector<double> out(max_lag + 1, 0.0);
  if (den == 0.0) return out;
  const auto devs = demeaned(xs, m);
  for (std::size_t lag = 0; lag <= max_lag; ++lag) {
    out[lag] = simd::dot(devs.first(n - lag), devs.subspan(lag));
  }
  simd::normalize_lags(out, n, den, out);
  return out;
}

int best_lag(std::span<const double> a, std::span<const double> b,
             std::size_t max_lag) {
  // A running first-max-wins maximum over the lag loop instead of a
  // materialized correlation vector: every per-cycle gait call is
  // allocation-free once the per-thread deviation buffers have grown.
  expects(a.size() == b.size(), "best_lag: equal sizes");
  expects(!a.empty(), "best_lag: non-empty");
  expects(max_lag < a.size(), "best_lag: max_lag < size");
  const std::size_t n = a.size();
  const double ma = stats::mean(a);
  const double mb = stats::mean(b);
  const double da = simd::sumsq_dev(a, ma);
  const double db = simd::sumsq_dev(b, mb);
  const double norm = std::sqrt(da * db);
  if (norm == 0.0) return -static_cast<int>(max_lag);  // all-zero: first wins
  thread_local std::vector<double> bdevs;
  // ptrack-lint: allow(alloc) per-thread scratch; steady capacity
  bdevs.resize(n);
  simd::sub_scalar(b, mb, bdevs);
  const auto adevs = demeaned(a, ma);
  int best = -static_cast<int>(max_lag);
  double best_val = -2.0;  // below any normalized correlation
  for (std::size_t li = 0; li < 2 * max_lag + 1; ++li) {
    const int lag = static_cast<int>(li) - static_cast<int>(max_lag);
    const std::size_t off = static_cast<std::size_t>(lag >= 0 ? lag : -lag);
    const std::size_t count = n - off;
    const double acc =
        lag >= 0 ? simd::dot(adevs.first(count),
                             std::span<const double>(bdevs).subspan(off))
                 : simd::dot(adevs.subspan(off),
                             std::span<const double>(bdevs).first(count));
    const double v = acc / norm;
    if (v > best_val) {
      best_val = v;
      best = lag;
    }
  }
  return best;
}

std::size_t dominant_period(std::span<const double> xs, std::size_t min_lag,
                            std::size_t max_lag) {
  if (xs.size() < 4 || min_lag >= xs.size()) return 0;
  max_lag = std::min(max_lag, xs.size() - 1);
  if (min_lag > max_lag) return 0;
  const auto ac = autocorr(xs, max_lag);
  const auto peaks = find_peaks(ac);
  std::size_t best = 0;
  double best_val = 0.0;
  for (std::size_t p : peaks) {
    if (p < min_lag || p > max_lag) continue;
    if (ac[p] > best_val) {
      best_val = ac[p];
      best = p;
    }
  }
  return best;
}

}  // namespace ptrack::dsp
