// Descriptive statistics over contiguous double sequences.
//
// All functions take std::span<const double> and are pure. Functions that
// need at least one element state it; violating a precondition throws
// ptrack::InvalidArgument (these are analysis utilities, not hot loops).

#pragma once

#include <span>
#include <vector>

namespace ptrack::stats {

/// Arithmetic mean. Requires a non-empty input.
double mean(std::span<const double> xs);

/// Population variance (divides by N). Requires a non-empty input.
double variance(std::span<const double> xs);

/// Population standard deviation. Requires a non-empty input.
double stddev(std::span<const double> xs);

/// Root mean square. Requires a non-empty input.
double rms(std::span<const double> xs);

/// Minimum value. Requires a non-empty input.
double min(std::span<const double> xs);

/// Maximum value. Requires a non-empty input.
double max(std::span<const double> xs);

/// Median (average of the two middle elements for even N). Non-empty input.
double median(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100]. Non-empty input.
double percentile(std::span<const double> xs, double p);

/// Pearson correlation coefficient of two equally sized sequences with at
/// least two elements. Returns 0 when either sequence is constant.
double pearson(std::span<const double> a, std::span<const double> b);

/// Sum of all elements (0 for empty input).
double sum(std::span<const double> xs);

/// Remove the mean in place; no-op on empty input.
void demean(std::span<double> xs);

/// Returns xs with its mean removed.
std::vector<double> demeaned(std::span<const double> xs);

/// Online mean/variance accumulator (Welford). Suitable for streaming use.
class Running {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  /// Mean of the values seen so far; requires count() > 0.
  [[nodiscard]] double mean() const;
  /// Population variance of the values seen so far; requires count() > 0.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ptrack::stats
