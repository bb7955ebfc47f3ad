#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>

#include "common/angles.hpp"
#include "common/check.hpp"
#include "common/error.hpp"

namespace ptrack::dsp {

namespace {

void bit_reverse_permute(std::span<std::complex<double>> data) {
  const std::size_t n = data.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

}  // namespace

void fft(std::span<std::complex<double>> data, bool inverse) {
  const std::size_t n = data.size();
  expects(n >= 1 && (n & (n - 1)) == 0, "fft: size is a power of two");
  if (n == 1) return;

  bit_reverse_permute(data);

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    for (auto& x : data) x /= static_cast<double>(n);
  }
}

std::size_t next_pow2(std::size_t n) {
  expects(n >= 1, "next_pow2: n >= 1");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  PTRACK_CHECK_MSG((p & (p - 1)) == 0 && p >= n && p < 2 * n,
                   "next_pow2: tightest covering power of two");
  return p;
}

std::vector<double> magnitude_spectrum(std::span<const double> xs) {
  if (xs.empty()) return {};
  const std::size_t nfft = next_pow2(xs.size());
  std::vector<std::complex<double>> buf(nfft, {0.0, 0.0});
  for (std::size_t i = 0; i < xs.size(); ++i) buf[i] = {xs[i], 0.0};
  fft(buf);
  std::vector<double> mag(nfft / 2 + 1);
  const double scale = 1.0 / static_cast<double>(xs.size());
  for (std::size_t k = 0; k < mag.size(); ++k) {
    const double m = std::abs(buf[k]) * scale;
    const bool interior = k != 0 && k != nfft / 2;
    mag[k] = interior ? 2.0 * m : m;
  }
  return mag;
}

double spectrum_peak_frequency(std::span<const double> mag, double fs) {
  expects(fs > 0.0, "spectrum_peak_frequency: fs > 0");
  std::size_t best = 0;
  double best_val = 0.0;
  for (std::size_t k = 1; k < mag.size(); ++k) {
    if (mag[k] > best_val) {
      best_val = mag[k];
      best = k;
    }
  }
  if (best == 0) return 0.0;
  const std::size_t nfft = (mag.size() - 1) * 2;
  return static_cast<double>(best) * fs / static_cast<double>(nfft);
}

double spectrum_entropy(std::span<const double> mag) {
  if (mag.size() <= 2) return 0.0;
  double total = 0.0;
  for (std::size_t k = 1; k < mag.size(); ++k) total += mag[k] * mag[k];
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (std::size_t k = 1; k < mag.size(); ++k) {
    const double p = mag[k] * mag[k] / total;
    if (p > 0.0) h -= p * std::log(p);
  }
  const double hmax = std::log(static_cast<double>(mag.size() - 1));
  return hmax > 0.0 ? h / hmax : 0.0;
}

double dominant_frequency(std::span<const double> xs, double fs) {
  expects(fs > 0.0, "dominant_frequency: fs > 0");
  if (xs.size() < 4) return 0.0;
  return spectrum_peak_frequency(magnitude_spectrum(xs), fs);
}

double spectral_entropy(std::span<const double> xs) {
  return spectrum_entropy(magnitude_spectrum(xs));
}

}  // namespace ptrack::dsp
