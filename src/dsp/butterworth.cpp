#include "dsp/butterworth.hpp"

#include <cmath>

#include "common/angles.hpp"
#include "common/error.hpp"

namespace ptrack::dsp {

namespace {

// Section quality factors of an order-n Butterworth: one section per
// conjugate pole pair, Q_k = 1 / (2 sin((2k+1)pi/(2n))). An odd order adds a
// real pole, realized as a degenerate (first-order) biquad. Order is capped
// at 12, so the section set always fits BiquadCascade's inline storage and
// filter design stays heap-free (it runs on the per-hop projection path).
struct SectionSet {
  std::array<BiquadCoeffs, BiquadCascade::kMaxSections> coeffs{};
  std::size_t count = 0;

  void push(const BiquadCoeffs& c) { coeffs[count++] = c; }
  [[nodiscard]] std::span<const BiquadCoeffs> span() const {
    return {coeffs.data(), count};
  }
};

double butterworth_q(int k, int order) {
  const double theta = (2.0 * k + 1.0) * kPi / (2.0 * order);
  return 1.0 / (2.0 * std::sin(theta));
}

BiquadCoeffs first_order_lowpass(double cutoff_hz, double fs) {
  const double k = std::tan(kPi * cutoff_hz / fs);
  BiquadCoeffs c;
  c.b0 = k / (k + 1.0);
  c.b1 = c.b0;
  c.b2 = 0.0;
  c.a1 = (k - 1.0) / (k + 1.0);
  c.a2 = 0.0;
  return c;
}

void check_design(int order, double cutoff_hz, double fs) {
  expects(order >= 1 && order <= 12, "butterworth: order in [1,12]");
  expects(fs > 0.0, "butterworth: fs > 0");
  expects(cutoff_hz > 0.0 && cutoff_hz < fs / 2.0,
          "butterworth: 0 < cutoff < fs/2");
}

}  // namespace

BiquadCascade butterworth_lowpass(int order, double cutoff_hz, double fs) {
  check_design(order, cutoff_hz, fs);
  SectionSet sections;
  for (int k = 0; k < order / 2; ++k)
    sections.push(lowpass(cutoff_hz, fs, butterworth_q(k, order)));
  if (order % 2 == 1) sections.push(first_order_lowpass(cutoff_hz, fs));
  return BiquadCascade(sections.span());
}

}  // namespace ptrack::dsp
