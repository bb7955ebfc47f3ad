#include "dsp/filtfilt.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"
#include "common/error.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/simd.hpp"
#include "dsp/workspace.hpp"

namespace ptrack::dsp {

namespace {

// Odd (point-reflected) padding as used by scipy.signal.filtfilt: mirrors
// the signal about its end values, which keeps level and slope continuous.
// Writes into `out`, which must have size xs.size() + 2 * pad.
void pad_reflect_into(std::span<const double> xs, std::size_t pad,
                      std::span<double> out) {
  const std::size_t n = xs.size();
  // Edge-pad bounds: the reflection reads xs[pad - i] and xs[n - 1 - i] for
  // i up to pad, so the pad must leave at least one interior sample, and the
  // destination must hold signal + both pads exactly.
  PTRACK_CHECK_MSG(n >= 1 && pad < n,
                   "pad_reflect_into: pad shorter than the signal");
  PTRACK_CHECK_MSG(out.size() == n + 2 * pad,
                   "pad_reflect_into: output sized to signal + both pads");
  for (std::size_t i = 0; i < pad; ++i) {
    out[i] = 2.0 * xs.front() - xs[pad - i];
  }
  std::copy(xs.begin(), xs.end(), out.begin() + static_cast<std::ptrdiff_t>(pad));
  for (std::size_t i = 1; i <= pad; ++i) {
    out[pad + n - 1 + i] = 2.0 * xs.back() - xs[n - 1 - i];
  }
}

// Forward-backward pass over the padded buffer, in place.
void filtfilt_inplace(const BiquadCascade& cascade, std::span<double> padded) {
  BiquadCascade f = cascade;
  f.reset();
  f.process_inplace(padded);
  std::reverse(padded.begin(), padded.end());
  f.reset();
  f.process_inplace(padded);
  std::reverse(padded.begin(), padded.end());
}

// Odd reflection of one channel into lane `lane` of the interleaved
// (sample-major, kIirLanes-stride) buffer — the same values pad_reflect_into
// writes, just strided.
void pad_reflect_lane(std::span<const double> xs, std::size_t pad,
                      double* out, std::size_t lane) {
  constexpr std::size_t kL = simd::kIirLanes;
  const std::size_t n = xs.size();
  PTRACK_CHECK_MSG(n >= 1 && pad < n,
                   "pad_reflect_lane: pad shorter than the signal");
  for (std::size_t i = 0; i < pad; ++i) {
    out[i * kL + lane] = 2.0 * xs.front() - xs[pad - i];
  }
  for (std::size_t i = 0; i < n; ++i) out[(pad + i) * kL + lane] = xs[i];
  for (std::size_t i = 1; i <= pad; ++i) {
    out[(pad + n - 1 + i) * kL + lane] = 2.0 * xs.back() - xs[n - 1 - i];
  }
}

// Pads every channel into the interleaved scratch (`pad` samples each
// side, already clamped) and runs the zero-phase forward/backward cascade
// over all lanes at once, each pass from zero state. Returns the padded
// interleaved buffer of (n + 2 * pad) samples.
// Backward pass = iterating the samples in reverse with fresh filter state,
// which is bit-identical to filtfilt_inplace's reverse/process/reverse.
std::span<double> multi_filter_core(
    const BiquadCascade& cascade, std::span<const std::span<const double>> xs,
    std::size_t pad, Workspace& ws) {
  constexpr std::size_t kL = simd::kIirLanes;
  const std::size_t k = xs.size();
  expects(k >= 1 && k <= kL, "filtfilt_multi: 1..kIirLanes channels");
  const std::size_t n = xs[0].size();
  for (const auto& chan : xs) {
    expects(chan.size() == n, "filtfilt_multi: equal-length channels");
  }
  const std::size_t m = n + 2 * pad;

  double* buf = ws.real_scratch(m * kL).data();
  for (std::size_t c = 0; c < k; ++c) {
    pad_reflect_lane(xs[c], pad, buf, c);
  }
  // Unused lanes never influence the occupied ones, but stale scratch there
  // could drive the recurrence through denormals/Inf and stall every lane's
  // arithmetic — zero them.
  for (std::size_t c = k; c < kL; ++c) {
    for (std::size_t i = 0; i < m; ++i) buf[i * kL + c] = 0.0;
  }

  const auto& secs = cascade.sections();
  std::array<BiquadCoeffs, 8> coeffs{};
  expects(secs.size() <= coeffs.size(), "filtfilt_multi: section count");
  for (std::size_t s = 0; s < secs.size(); ++s) coeffs[s] = secs[s].coeffs();
  const std::span<const BiquadCoeffs> sections(coeffs.data(), secs.size());
  simd::cascade_multi(sections, buf, m, false);
  simd::cascade_multi(sections, buf, m, true);
  return {buf, m * kL};
}

}  // namespace

std::vector<double> filtfilt(const BiquadCascade& cascade,
                             std::span<const double> xs, std::size_t pad) {
  if (xs.empty()) return {};
  pad = std::min(pad, xs.size() - 1);

  std::vector<double> padded(xs.size() + 2 * pad);
  pad_reflect_into(xs, pad, padded);
  filtfilt_inplace(cascade, padded);

  return {padded.begin() + static_cast<std::ptrdiff_t>(pad),
          padded.begin() + static_cast<std::ptrdiff_t>(pad + xs.size())};
}

void filtfilt_into(const BiquadCascade& cascade, std::span<const double> xs,
                   std::size_t pad, Workspace& ws, std::vector<double>& out) {
  if (xs.empty()) {
    out.clear();
    return;
  }
  pad = std::min(pad, xs.size() - 1);

  const std::span<double> padded = ws.real_scratch(xs.size() + 2 * pad);
  pad_reflect_into(xs, pad, padded);
  filtfilt_inplace(cascade, padded);

  // ptrack-lint: allow(alloc) refills caller scratch; steady capacity
  out.assign(padded.begin() + static_cast<std::ptrdiff_t>(pad),
             padded.begin() + static_cast<std::ptrdiff_t>(pad + xs.size()));
}

void filtfilt_multi_into(const BiquadCascade& cascade,
                         std::span<const std::span<const double>> xs,
                         std::size_t pad, Workspace& ws,
                         std::span<const std::span<double>> outs) {
  constexpr std::size_t kL = simd::kIirLanes;
  expects(outs.size() == xs.size(),
          "filtfilt_multi_into: one output per channel");
  if (xs.empty()) return;
  const std::size_t n = xs[0].size();
  for (const auto& out : outs) {
    expects(out.size() == n, "filtfilt_multi_into: outputs sized to channel");
  }
  if (n == 0) return;
  pad = std::min(pad, n - 1);
  const auto buf = multi_filter_core(cascade, xs, pad, ws);
  for (std::size_t c = 0; c < outs.size(); ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      outs[c][i] = buf[(pad + i) * kL + c];
    }
  }
}

std::vector<double> zero_phase_lowpass(std::span<const double> xs,
                                       double cutoff_hz, double fs, int order) {
  return filtfilt(butterworth_lowpass(order, cutoff_hz, fs), xs);
}

}  // namespace ptrack::dsp
