#include "core/frontend.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"
#include "common/error.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/projection.hpp"
#include "dsp/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::core {

namespace {

/// The renormalized sum of `count` copies of `up`: the representative up
/// an anterior window is fit against. The sum rounds differently from `up`
/// itself, and the batch channels are defined with that rounding.
Vec3 window_up(const Vec3& up, std::size_t count) {
  Vec3 sum{};
  for (std::size_t i = 0; i < count; ++i) sum += up;
  return sum.normalized();
}

/// Row i of the raw filter lanes (see LowpassCarry): (f, 1).
void raw_lane_row(std::span<const double> ax, std::span<const double> ay,
                  std::span<const double> az, std::size_t i, double* row) {
  row[0] = ax[i];
  row[1] = ay[i];
  row[2] = az[i];
  row[3] = 1.0;
}

}  // namespace

dsp::BiquadCascade output_lowpass(double lowpass_hz, double fs) {
  return dsp::butterworth_lowpass(4, std::min(lowpass_hz, 0.45 * fs), fs);
}

LowpassCarry::LowpassCarry(double lowpass_hz, double fs) {
  expects(fs > 0.0 && lowpass_hz > 0.0, "LowpassCarry: fs, lowpass_hz > 0");
  const dsp::BiquadCascade cascade = output_lowpass(lowpass_hz, fs);
  nsec_ = cascade.sections().size();
  for (std::size_t s = 0; s < nsec_; ++s) {
    sections_[s] = cascade.sections()[s].coeffs();
  }
}

void LowpassCarry::seed(std::span<const double> ax, std::span<const double> ay,
                        std::span<const double> az, std::size_t count,
                        std::size_t at, dsp::Workspace& ws) {
  constexpr std::size_t kL = dsp::simd::kIirLanes;
  const std::size_t n = ax.size();
  expects(n >= 2 && ay.size() == n && az.size() == n && count <= n,
          "LowpassCarry::seed: equal spans covering the seeded samples");
  // The same odd reflection a carry-less filtfilt applies to the projected
  // channels: reflecting the lanes and then combining them is reflecting
  // the combination (the constant lane reflects to itself).
  const std::size_t pad = std::min(kLowpassPad, n - 1);
  double* rows = ws.real_scratch((pad + count) * kL).data();
  std::array<double, kL> first{};
  raw_lane_row(ax, ay, az, 0, first.data());
  for (std::size_t i = 0; i < pad; ++i) {
    double* row = rows + i * kL;
    raw_lane_row(ax, ay, az, pad - i, row);
    for (std::size_t c = 0; c < kL; ++c) row[c] = 2.0 * first[c] - row[c];
  }
  for (std::size_t i = 0; i < count; ++i) {
    raw_lane_row(ax, ay, az, i, rows + (pad + i) * kL);
  }
  state_.fill(0.0);
  run(rows, pad + count);
  at_ = at;
}

void LowpassCarry::advance(std::span<const double> ax,
                           std::span<const double> ay,
                           std::span<const double> az, dsp::Workspace& ws) {
  constexpr std::size_t kL = dsp::simd::kIirLanes;
  const std::size_t n = ax.size();
  expects(ay.size() == n && az.size() == n,
          "LowpassCarry::advance: equal spans");
  PTRACK_CHECK_MSG(valid_, "LowpassCarry::advance: a seeded state");
  double* rows = ws.real_scratch(n * kL).data();
  for (std::size_t i = 0; i < n; ++i) {
    raw_lane_row(ax, ay, az, i, rows + i * kL);
  }
  run(rows, n);
  at_ += n;
}

void LowpassCarry::run(double* rows, std::size_t count) {
  PTRACK_CHECK_MSG(nsec_ > 0, "LowpassCarry::run: a designed low-pass");
  dsp::simd::cascade_multi({sections_.data(), nsec_}, rows, count, false,
                           state_.data());
  valid_ = std::ranges::all_of(state_span(),
                               [](double v) { return std::isfinite(v); });
}

void project_channels_into(std::span<const double> ax,
                           std::span<const double> ay,
                           std::span<const double> az, double fs,
                           double lowpass_hz, double anterior_window_s,
                           dsp::Workspace& ws, ProjectionSeam* seam,
                           const AxisHistory& axes, ProjectedChannels& out,
                           const FilterCarry& carry) {
  const std::size_t n = ax.size();
  expects(n >= 16, "project_channels: >= 16 samples");
  expects(n == ay.size() && ay.size() == az.size(),
          "project_channels: equal channel lengths");
  expects(axes.empty() ||
              (axes.ax.size() == axes.ay.size() &&
               axes.ay.size() == axes.az.size() && axes.ax.size() >= 16),
          "project_channels: axis spans equal-length and >= 16 samples");
  expects(axes.up_weights.empty() ||
              axes.up_weights.size() == (axes.empty() ? n : axes.ax.size()),
          "project_channels: gravity weights match the axis history");
  expects(fs > 0.0, "project_channels: fs > 0");
  expects(lowpass_hz > 0.0, "project_channels: lowpass_hz > 0");
  expects(carry.empty() ? carry.lead == 0
                        : carry.lead < n && n - carry.lead > kLowpassPad,
          "project_channels: carried lead leaves an unclamped right pad");
  PTRACK_OBS_SPAN("ptrack.core.project");
  PTRACK_COUNT("ptrack.core.projections");
  const std::size_t lead = carry.lead;
  const std::size_t m = n - lead;  // projected and filtered samples

  // Axes pinned to the wider history when one is given (up from its
  // gravity estimate, anterior principal direction from its horizontal
  // residual); otherwise both come from the spans themselves, lead
  // included.
  const AxisHistory hist =
      axes.empty() ? AxisHistory{ax, ay, az, axes.up_weights} : axes;
  const Vec3 up =
      hist.up_weights.empty()
          ? dsp::estimate_up(hist.ax, hist.ay, hist.az, fs,
                             dsp::kGravityCutoffHz, ws)
          : dsp::estimate_up(hist.ax, hist.ay, hist.az, hist.up_weights);
  Vec3 pinned_dir{};
  if (!axes.empty()) {
    pinned_dir =
        dsp::principal_horizontal_direction(axes.ax, axes.ay, axes.az, up);
  }

  // Raw (pre-filter) channels in per-thread scratch: both are transient
  // inputs to the zero-phase filter, so reusing them across calls keeps the
  // streaming hop allocation-free. Index j holds sample lead + j.
  thread_local std::vector<double> vertical;
  thread_local std::vector<double> anterior;
  vertical.resize(m);
  anterior.resize(m);
  // Specific force f = a_lin - g_vec with g_vec = -g*up, so the linear
  // vertical acceleration is f.up - g.
  dsp::simd::axis_project(ax.subspan(lead), ay.subspan(lead),
                          az.subspan(lead), up, kGravity, vertical);

  // Anterior projection of the gravity-removed residual, with one principal
  // direction for the whole span or re-fit per window. Every window is fit
  // (and moves the seam) as without a carry; only its part from `lead` on
  // is projected.
  Vec3 local_seam{};
  Vec3& seam_dir = seam ? seam->prev_anterior_dir : local_seam;
  Vec3 lead_dir{};  // direction of the window holding sample `lead`
  const auto project_range = [&](std::size_t begin, std::size_t end) {
    Vec3 dir = pinned_dir;
    if (axes.empty()) {
      dir = dsp::principal_horizontal_direction(
          ax.subspan(begin, end - begin), ay.subspan(begin, end - begin),
          az.subspan(begin, end - begin), window_up(up, end - begin));
    }
    // Sign continuity: PCA is sign-ambiguous; align with the previous
    // window so the channel doesn't flip mid-trace (or mid-stream).
    if (seam_dir.norm2() > 0.0 && dir.dot(seam_dir) < 0.0) dir = -dir;
    seam_dir = dir;
    if (end <= lead) return;
    if (begin <= lead) lead_dir = dir;
    begin = std::max(begin, lead);
    const std::size_t count = end - begin;
    const std::span<const double> x = ax.subspan(begin, count);
    const std::span<const double> y = ay.subspan(begin, count);
    const std::span<const double> z = az.subspan(begin, count);
    const std::span<double> dst =
        std::span<double>(anterior).subspan(begin - lead, count);
    dsp::simd::residual_project(x, y, z, up, dir, dst);
  };

  if (!axes.empty() || anterior_window_s <= 0.0) {
    project_range(0, n);
  } else {
    const auto window = std::max<std::size_t>(
        32, static_cast<std::size_t>(anterior_window_s * fs));
    std::size_t begin = 0;
    while (begin < n) {
      std::size_t end = std::min(begin + window, n);
      // Avoid a tiny tail window: merge it into the previous one.
      if (n - end < window / 2) end = n;
      project_range(begin, end);
      begin = end;
    }
  }

  // Both channels through the lane-parallel zero-phase filter in one pass;
  // per channel bit-identical to a single-channel zero_phase_lowpass.
  out.fs = fs;
  out.vertical.resize(m);
  out.anterior.resize(m);
  const dsp::BiquadCascade lowpass = output_lowpass(lowpass_hz, fs);
  const std::array<std::span<const double>, 2> ins{vertical, anterior};
  const std::array<std::span<double>, 2> outs{out.vertical, out.anterior};
  if (carry.empty()) {
    dsp::filtfilt_multi_into(lowpass, ins, kLowpassPad, ws, outs);
    return;
  }
  // Each channel's state is its lane combination of the raw-lane state
  // (see LowpassCarry), under this call's axes.
  const Vec3 d = lead_dir - up * up.dot(lead_dir);
  const std::array<double, dsp::simd::kIirLanes> cv{up.x, up.y, up.z,
                                                    -kGravity};
  const std::array<double, dsp::simd::kIirLanes> ca{d.x, d.y, d.z, 0.0};
  constexpr std::size_t kL = dsp::simd::kIirLanes;
  std::array<double, dsp::simd::cascade_state_size(
                         dsp::BiquadCascade::kMaxSections)>
      state{};
  const std::size_t size =
      dsp::simd::cascade_state_size(lowpass.sections().size());
  expects(carry.raw_state.size() == size,
          "project_channels: carried state sized to the output low-pass");
  for (std::size_t r = 0; r < size; r += kL) {
    double v = 0.0;
    double a = 0.0;
    for (std::size_t c = 0; c < kL; ++c) {
      v += cv[c] * carry.raw_state[r + c];
      a += ca[c] * carry.raw_state[r + c];
    }
    state[r] = v;
    state[r + 1] = a;
  }
  dsp::filtfilt_multi_carried_into(lowpass, ins,
                                   std::span<const double>(state.data(), size),
                                   kLowpassPad, ws, outs);
}

ProjectedChannels project_trace(const imu::Trace& trace, double lowpass_hz,
                                double anterior_window_s,
                                dsp::Workspace* ws) {
  expects(lowpass_hz > 0.0, "project_trace: lowpass_hz > 0");
  dsp::Workspace local;
  ProjectedChannels out;
  project_channels_into(trace.accel_axis(0), trace.accel_axis(1),
                        trace.accel_axis(2), trace.fs(), lowpass_hz,
                        anterior_window_s, ws ? *ws : local, nullptr, {}, out);
  return out;
}

}  // namespace ptrack::core
