// Second-order IIR (biquad) section and cascades.
//
// Coefficients follow the Audio-EQ-Cookbook (RBJ) convention, normalized so
// a0 == 1:   y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2]
// The section keeps Direct Form II transposed state, which is numerically
// well behaved for the low cutoff / high sample-rate ratios pedestrian
// tracking uses (e.g. 3 Hz cutoff at 100 Hz sampling).

#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace ptrack::dsp {

/// Normalized biquad coefficients (a0 == 1 implied).
struct BiquadCoeffs {
  double b0 = 1.0;
  double b1 = 0.0;
  double b2 = 0.0;
  double a1 = 0.0;
  double a2 = 0.0;
};

/// RBJ low-pass design. cutoff_hz in (0, fs/2), q > 0 (0.7071 = Butterworth).
BiquadCoeffs lowpass(double cutoff_hz, double fs, double q = 0.70710678);

/// One stateful biquad section.
class Biquad {
 public:
  Biquad() = default;
  explicit Biquad(const BiquadCoeffs& c) : c_(c) {}

  /// Processes one sample.
  double step(double x) {
    const double y = c_.b0 * x + s1_;
    s1_ = c_.b1 * x - c_.a1 * y + s2_;
    s2_ = c_.b2 * x - c_.a2 * y;
    return y;
  }

  /// Filters a whole buffer (stateful: continues from previous state).
  std::vector<double> process(std::span<const double> xs);

  /// Filters a buffer in place (stateful); allocation-free.
  void process_inplace(std::span<double> xs);

  /// Clears internal state.
  void reset() { s1_ = s2_ = 0.0; }

  [[nodiscard]] const BiquadCoeffs& coeffs() const { return c_; }

 private:
  BiquadCoeffs c_{};
  double s1_ = 0.0;
  double s2_ = 0.0;
};

/// A series cascade of biquad sections (e.g. a high-order Butterworth).
///
/// Sections live inline (no heap): pedestrian-tracking filters top out at
/// order 12 (6 sections), so kMaxSections bounds every design this library
/// can produce, and constructing/copying a cascade on the per-hop path is
/// allocation-free by construction.
class BiquadCascade {
 public:
  static constexpr std::size_t kMaxSections = 8;

  BiquadCascade() = default;
  explicit BiquadCascade(std::span<const BiquadCoeffs> sections);

  double step(double x) {
    for (std::size_t i = 0; i < count_; ++i) x = sections_[i].step(x);
    return x;
  }

  std::vector<double> process(std::span<const double> xs);

  /// Filters a buffer in place (stateful); allocation-free.
  void process_inplace(std::span<double> xs);

  void reset();

  [[nodiscard]] std::size_t order() const { return 2 * count_; }
  [[nodiscard]] std::span<const Biquad> sections() const {
    return {sections_.data(), count_};
  }

 private:
  std::array<Biquad, kMaxSections> sections_{};
  std::size_t count_ = 0;
};

}  // namespace ptrack::dsp
