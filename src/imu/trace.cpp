#include "imu/trace.hpp"

#include "common/error.hpp"

namespace ptrack::imu {

Trace::Trace(double fs, std::vector<Sample> samples)
    : fs_(fs), samples_(std::move(samples)) {
  expects(fs > 0.0, "Trace: fs > 0");
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    expects(samples_[i].t >= samples_[i - 1].t, "Trace: non-decreasing time");
  }
}

void Trace::append(const Trace& tail) {
  expects(fs_ == tail.fs_, "Trace::append: equal sample rates");
  const double t0 = empty() ? 0.0 : samples_.back().t + dt();
  const double tail_t0 = tail.empty() ? 0.0 : tail.samples_.front().t;
  samples_.reserve(samples_.size() + tail.size());
  for (Sample s : tail.samples_) {
    s.t = t0 + (s.t - tail_t0);
    samples_.push_back(s);
  }
}

Trace Trace::slice(std::size_t begin, std::size_t end) const {
  expects(begin <= end && end <= samples_.size(), "Trace::slice: valid range");
  return Trace(fs_, {samples_.begin() + static_cast<std::ptrdiff_t>(begin),
                     samples_.begin() + static_cast<std::ptrdiff_t>(end)});
}

std::vector<double> Trace::accel_axis(int axis) const {
  expects(axis >= 0 && axis <= 2, "accel_axis: axis in {0,1,2}");
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) {
    out.push_back(axis == 0 ? s.accel.x : axis == 1 ? s.accel.y : s.accel.z);
  }
  return out;
}

std::vector<double> Trace::accel_magnitude() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) out.push_back(s.accel.norm());
  return out;
}

}  // namespace ptrack::imu
