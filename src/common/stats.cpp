#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace ptrack::stats {

double mean(std::span<const double> xs) {
  expects(!xs.empty(), "mean: non-empty input");
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  expects(!xs.empty(), "variance: non-empty input");
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double rms(std::span<const double> xs) {
  expects(!xs.empty(), "rms: non-empty input");
  double acc = 0.0;
  for (double x : xs) acc += x * x;
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double min(std::span<const double> xs) {
  expects(!xs.empty(), "min: non-empty input");
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  expects(!xs.empty(), "max: non-empty input");
  return *std::max_element(xs.begin(), xs.end());
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double p) {
  expects(!xs.empty(), "percentile: non-empty input");
  expects(p >= 0.0 && p <= 100.0, "percentile: p in [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double pearson(std::span<const double> a, std::span<const double> b) {
  expects(a.size() == b.size(), "pearson: equal sizes");
  expects(a.size() >= 2, "pearson: at least two elements");
  const double ma = mean(a);
  const double mb = mean(b);
  double sab = 0.0;
  double saa = 0.0;
  double sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  if (saa == 0.0 || sbb == 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

double sum(std::span<const double> xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

void demean(std::span<double> xs) {
  if (xs.empty()) return;
  const double m = mean(xs);
  for (double& x : xs) x -= m;
}

std::vector<double> demeaned(std::span<const double> xs) {
  std::vector<double> out(xs.begin(), xs.end());
  demean(out);
  return out;
}

void Running::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Running::mean() const {
  expects(n_ > 0, "Running::mean: no samples");
  return mean_;
}

double Running::variance() const {
  expects(n_ > 0, "Running::variance: no samples");
  return m2_ / static_cast<double>(n_);
}

double Running::stddev() const { return std::sqrt(variance()); }

double Running::min() const {
  expects(n_ > 0, "Running::min: no samples");
  return min_;
}

double Running::max() const {
  expects(n_ > 0, "Running::max: no samples");
  return max_;
}

}  // namespace ptrack::stats
