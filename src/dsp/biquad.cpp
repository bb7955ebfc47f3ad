#include "dsp/biquad.hpp"

#include <cmath>

#include "common/angles.hpp"
#include "common/error.hpp"

namespace ptrack::dsp {

namespace {

void check_band(double f, double fs) {
  expects(fs > 0.0, "biquad design: fs > 0");
  expects(f > 0.0 && f < fs / 2.0, "biquad design: 0 < f < fs/2");
}

}  // namespace

BiquadCoeffs lowpass(double cutoff_hz, double fs, double q) {
  check_band(cutoff_hz, fs);
  expects(q > 0.0, "lowpass: q > 0");
  const double w0 = kTwoPi * cutoff_hz / fs;
  const double cw = std::cos(w0);
  const double sw = std::sin(w0);
  const double alpha = sw / (2.0 * q);
  const double a0 = 1.0 + alpha;
  BiquadCoeffs c;
  c.b0 = (1.0 - cw) / 2.0 / a0;
  c.b1 = (1.0 - cw) / a0;
  c.b2 = c.b0;
  c.a1 = -2.0 * cw / a0;
  c.a2 = (1.0 - alpha) / a0;
  return c;
}

std::vector<double> Biquad::process(std::span<const double> xs) {
  std::vector<double> out;
  // ptrack-lint: push-allow(alloc) batch-only wrapper; streaming uses
  // the allocation-free incremental path
  out.reserve(xs.size());
  for (double x : xs) out.push_back(step(x));
  // ptrack-lint: pop-allow(alloc)
  return out;
}

void Biquad::process_inplace(std::span<double> xs) {
  for (double& x : xs) x = step(x);
}

BiquadCascade::BiquadCascade(std::span<const BiquadCoeffs> sections) {
  expects(sections.size() <= kMaxSections,
          "BiquadCascade: at most kMaxSections sections");
  count_ = sections.size();
  for (std::size_t i = 0; i < count_; ++i) sections_[i] = Biquad(sections[i]);
}

std::vector<double> BiquadCascade::process(std::span<const double> xs) {
  std::vector<double> out;
  // ptrack-lint: push-allow(alloc) batch-only wrapper; streaming uses
  // the allocation-free incremental path
  out.reserve(xs.size());
  for (double x : xs) out.push_back(step(x));
  // ptrack-lint: pop-allow(alloc)
  return out;
}

void BiquadCascade::process_inplace(std::span<double> xs) {
  for (double& x : xs) x = step(x);
}

void BiquadCascade::reset() {
  for (auto& s : sections_) s.reset();
}

}  // namespace ptrack::dsp
