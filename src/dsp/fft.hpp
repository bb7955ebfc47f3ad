// Radix-2 FFT and spectral helpers.
//
// Used by the SCAR baseline's frequency-domain features (dominant frequency,
// spectral entropy). Correlation runs as direct lag loops
// (dsp/correlate.hpp), so the one transform is a plain in-place complex FFT
// with per-stage twiddles.

#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace ptrack::dsp {

/// In-place iterative radix-2 Cooley-Tukey FFT. Size must be a power of two
/// (>= 1). Set `inverse` for the inverse transform (includes the 1/N scale).
void fft(std::span<std::complex<double>> data, bool inverse = false);

/// Next power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// One-sided magnitude spectrum of a real signal, zero-padded to the next
/// power of two. Output size is nfft/2 + 1. Magnitudes are scaled by 2/N
/// (except DC and Nyquist, scaled by 1/N) so a unit-amplitude sinusoid shows
/// magnitude ~= 1 in its bin.
std::vector<double> magnitude_spectrum(std::span<const double> xs);

/// Frequency (Hz) of the largest non-DC bin of the magnitude spectrum.
/// Returns 0 for inputs shorter than 4 samples or an all-zero spectrum.
double dominant_frequency(std::span<const double> xs, double fs);

/// Normalized spectral entropy in [0, 1] (0 = single tone, 1 = flat).
double spectral_entropy(std::span<const double> xs);

/// The two features above from a spectrum already computed with
/// magnitude_spectrum(), for callers that want both of one signal: the
/// same arithmetic, one transform. spectrum_peak_frequency has no
/// short-input case (dominant_frequency's < 4 samples).
double spectrum_peak_frequency(std::span<const double> mag, double fs);
double spectrum_entropy(std::span<const double> mag);

}  // namespace ptrack::dsp
