// A uniformly sampled IMU trace with slicing and axis-extraction helpers.

#pragma once

#include <span>
#include <vector>

#include "imu/sample.hpp"

namespace ptrack::imu {

/// Uniformly sampled IMU recording. Invariant: samples are evenly spaced at
/// 1/fs starting from samples.front().t (enforced on construction paths that
/// can check it).
class Trace {
 public:
  Trace() = default;

  /// Builds a trace from samples at the given rate. fs > 0; sample times must
  /// be non-decreasing.
  Trace(double fs, std::vector<Sample> samples);

  [[nodiscard]] double fs() const { return fs_; }
  [[nodiscard]] double dt() const { return 1.0 / fs_; }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double duration() const {
    return empty() ? 0.0 : static_cast<double>(size()) / fs_;
  }

  [[nodiscard]] const Sample& operator[](std::size_t i) const {
    return samples_[i];
  }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] std::vector<Sample>& samples() { return samples_; }

  /// Appends another trace recorded at the same rate; timestamps of `tail`
  /// are shifted to continue seamlessly after this trace.
  void append(const Trace& tail);

  /// Sub-trace covering sample indices [begin, end).
  [[nodiscard]] Trace slice(std::size_t begin, std::size_t end) const;

  /// One acceleration axis as a flat array: 0 = x, 1 = y, 2 = z.
  [[nodiscard]] std::vector<double> accel_axis(int axis) const;

  /// Euclidean norm of each acceleration sample.
  [[nodiscard]] std::vector<double> accel_magnitude() const;

 private:
  double fs_ = 0.0;
  std::vector<Sample> samples_;
};

}  // namespace ptrack::imu
