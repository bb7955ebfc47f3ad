#include "core/frontend.hpp"

#include <algorithm>
#include <array>
#include <type_traits>

#include "common/error.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/projection.hpp"
#include "dsp/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::core {

namespace {

/// Per-sample up-direction field: either one constant direction (batch
/// gravity estimate) or a per-sample track (attitude filter). Avoids
/// materializing a vector of identical copies for the constant case.
class UpField {
 public:
  explicit UpField(const Vec3& constant) : constant_(constant) {}
  explicit UpField(std::span<const Vec3> per_sample)
      : per_sample_(per_sample) {}

  const Vec3& operator[](std::size_t i) const {
    return per_sample_.empty() ? constant_ : per_sample_[i];
  }

  /// Normalized mean direction over [begin, end) — the representative up
  /// for a projection window (per-sample ups vary slowly).
  [[nodiscard]] Vec3 window_mean(std::size_t begin, std::size_t end) const {
    Vec3 up{};
    for (std::size_t i = begin; i < end; ++i) up += (*this)[i];
    return up.normalized();
  }

  /// True when every sample sees the same up (the batch gravity estimate) —
  /// the precondition for the SIMD whole-span projection fast paths.
  [[nodiscard]] bool is_constant() const { return per_sample_.empty(); }
  [[nodiscard]] const Vec3& constant() const { return constant_; }

 private:
  Vec3 constant_{};
  std::span<const Vec3> per_sample_{};
};

/// The i-th specific-force vector of three channel spans (widened to
/// double for the per-sample attitude-filter path).
template <typename T>
Vec3 force(std::span<const T> x, std::span<const T> y, std::span<const T> z,
           std::size_t i) {
  return {static_cast<double>(x[i]), static_cast<double>(y[i]),
          static_cast<double>(z[i])};
}

}  // namespace

template <typename T>
void project_channels_into(std::span<const T> ax, std::span<const T> ay,
                           std::span<const T> az, double fs,
                           double lowpass_hz, double anterior_window_s,
                           std::span<const Vec3> ups, dsp::Workspace& ws,
                           ProjectionSeam* seam, const AxisHistory<T>& axes,
                           ProjectedChannels<T>& out) {
  const std::size_t n = ax.size();
  expects(n >= 16, "project_channels: >= 16 samples");
  expects(n == ay.size() && ay.size() == az.size(),
          "project_channels: equal channel lengths");
  expects(ups.empty() || ups.size() == n,
          "project_channels: ups empty or one per sample");
  expects(std::is_same_v<T, double> || ups.empty(),
          "project_channels: float32 has no attitude-filter path");
  expects(axes.empty() ||
              (axes.ax.size() == axes.ay.size() &&
               axes.ay.size() == axes.az.size() && axes.ax.size() >= 16),
          "project_channels: axis spans equal-length and >= 16 samples");
  expects(axes.up_weights.empty() || axes.up_weights.size() == axes.ax.size(),
          "project_channels: gravity weights match the axis history");
  expects(fs > 0.0, "project_channels: fs > 0");
  expects(lowpass_hz > 0.0, "project_channels: lowpass_hz > 0");
  PTRACK_OBS_SPAN("ptrack.core.project");
  PTRACK_COUNT("ptrack.core.projections");

  // Axes pinned to the wider history when one is given (up from its
  // gravity estimate unless a per-sample track is supplied, anterior
  // principal direction from its horizontal residual); otherwise both come
  // from the projected span itself.
  const AxisHistory<T> hist =
      axes.empty() ? AxisHistory<T>{ax, ay, az} : axes;
  const UpField up_field =
      !ups.empty() ? UpField(ups)
      : hist.up_weights.empty()
          ? UpField(dsp::estimate_up(hist.ax, hist.ay, hist.az, fs,
                                     dsp::kGravityCutoffHz, ws))
          : UpField(dsp::estimate_up(hist.ax, hist.ay, hist.az,
                                     hist.up_weights));
  Vec3 pinned_dir{};
  if (!axes.empty()) {
    const Vec3 up =
        ups.empty() ? up_field.constant() : up_field.window_mean(0, n);
    pinned_dir =
        dsp::principal_horizontal_direction(axes.ax, axes.ay, axes.az, up);
  }

  // Raw (pre-filter) channels in per-thread scratch: both are transient
  // inputs to the zero-phase filter, so reusing them across calls keeps the
  // streaming hop allocation-free.
  thread_local std::vector<T> vertical;
  thread_local std::vector<T> anterior;
  vertical.resize(n);
  anterior.resize(n);
  // Specific force f = a_lin - g_vec with g_vec = -g*up, so the linear
  // vertical acceleration is f.up - g.
  if (up_field.is_constant()) {
    dsp::simd::axis_project(ax, ay, az, up_field.constant(),
                            static_cast<T>(kGravity), std::span<T>(vertical));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3 f = force(ax, ay, az, i);
      vertical[i] = static_cast<T>(f.dot(ups[i]) - kGravity);
    }
  }

  // Anterior projection of the gravity-removed residual, with one principal
  // direction for the whole span or re-fit per window.
  Vec3 local_seam{};
  Vec3& seam_dir = seam ? seam->prev_anterior_dir : local_seam;
  const auto project_range = [&](std::size_t begin, std::size_t end) {
    const std::size_t count = end - begin;
    const std::span<const T> x = ax.subspan(begin, count);
    const std::span<const T> y = ay.subspan(begin, count);
    const std::span<const T> z = az.subspan(begin, count);
    Vec3 dir = pinned_dir;
    if (axes.empty()) {
      // The window's representative up for the fit. The double frontend
      // takes the renormalized mean of the up field over the window even
      // when the field is the constant gravity estimate (a sum of `count`
      // copies rounds differently from the estimate itself); the float
      // frontend fits against the estimate directly. Each precision keeps
      // its own rounding so that neither one's output moves.
      const Vec3 fit_up = std::is_same_v<T, float>
                              ? up_field.constant()
                              : up_field.window_mean(begin, end);
      dir = dsp::principal_horizontal_direction(x, y, z, fit_up);
    }
    // Sign continuity: PCA is sign-ambiguous; align with the previous
    // window so the channel doesn't flip mid-trace (or mid-stream).
    if (seam_dir.norm2() > 0.0 && dir.dot(seam_dir) < 0.0) dir = -dir;
    seam_dir = dir;
    const std::span<T> dst = std::span<T>(anterior).subspan(begin, count);
    if (up_field.is_constant()) {
      dsp::simd::residual_project(x, y, z, up_field.constant(), dir, dst);
      return;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const Vec3 f = force(x, y, z, i);
      const Vec3& up = ups[begin + i];
      const Vec3 residual = f - up * f.dot(up);
      dst[i] = static_cast<T>(residual.dot(dir));
    }
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
  out.vertical.resize(n);
  out.anterior.resize(n);
  const double fc = std::min(lowpass_hz, 0.45 * fs);
  const std::array<std::span<const T>, 2> ins{vertical, anterior};
  const std::array<std::span<T>, 2> outs{out.vertical, out.anterior};
  dsp::filtfilt_multi_into(dsp::butterworth_lowpass(4, fc, fs), ins, 64, ws,
                           outs);
}

template void project_channels_into<double>(
    std::span<const double>, std::span<const double>, std::span<const double>,
    double, double, double, std::span<const Vec3>, dsp::Workspace&,
    ProjectionSeam*, const AxisHistory<double>&, ProjectedChannels<double>&);
template void project_channels_into<float>(
    std::span<const float>, std::span<const float>, std::span<const float>,
    double, double, double, std::span<const Vec3>, dsp::Workspace&,
    ProjectionSeam*, const AxisHistory<float>&, ProjectedChannels<float>&);

ProjectedTrace project_trace(const imu::Trace& trace, double lowpass_hz,
                             double anterior_window_s, dsp::Workspace* ws) {
  expects(lowpass_hz > 0.0, "project_trace: lowpass_hz > 0");
  dsp::Workspace local;
  ProjectedTrace out;
  project_channels_into<double>(trace.accel_axis(0), trace.accel_axis(1),
                                trace.accel_axis(2), trace.fs(), lowpass_hz,
                                anterior_window_s, {}, ws ? *ws : local,
                                nullptr, {}, out);
  return out;
}

}  // namespace ptrack::core
