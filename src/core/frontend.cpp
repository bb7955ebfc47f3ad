#include "core/frontend.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "dsp/attitude.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/filtfilt.hpp"
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

/// Raw specific-force channels, read as Vec3 per sample where the
/// per-sample up track needs it.
struct Forces {
  std::span<const double> x;
  std::span<const double> y;
  std::span<const double> z;
  [[nodiscard]] std::size_t size() const { return x.size(); }
  Vec3 operator[](std::size_t i) const { return Vec3{x[i], y[i], z[i]}; }
  [[nodiscard]] Vec3 principal_dir(std::size_t begin, std::size_t end,
                                   const Vec3& up) const {
    const std::size_t n = end - begin;
    return dsp::principal_horizontal_direction(
        x.subspan(begin, n), y.subspan(begin, n), z.subspan(begin, n), up);
  }
};

/// Decomposes pre-computed vertical/anterior raw channels into the final
/// band-limited ProjectedTrace. `out` is resized in place: a caller that
/// reuses one ProjectedTrace across hops stops allocating once its channel
/// capacity has warmed up.
void finish_into(std::span<const double> vertical,
                 std::span<const double> anterior, double fs,
                 double lowpass_hz, dsp::Workspace* ws, ProjectedTrace& out) {
  out.fs = fs;
  const double fc = std::min(lowpass_hz, 0.45 * fs);
  const std::size_t n = vertical.size();
  out.vertical.resize(n);
  out.anterior.resize(n);
  if (ws) {
    // Both channels through the lane-parallel zero-phase filter in one
    // pass; per channel bit-identical to zero_phase_lowpass.
    const std::array<std::span<const double>, 2> ins{vertical, anterior};
    const std::array<std::span<double>, 2> outs{out.vertical, out.anterior};
    dsp::filtfilt_multi_into(dsp::butterworth_lowpass(4, fc, fs), ins, 64,
                             *ws, outs);
  } else {
    const std::vector<double> v = dsp::zero_phase_lowpass(vertical, fc, fs, 4);
    const std::vector<double> a = dsp::zero_phase_lowpass(anterior, fc, fs, 4);
    std::copy(v.begin(), v.end(), out.vertical.begin());
    std::copy(a.begin(), a.end(), out.anterior.begin());
  }
}

/// Anterior projection of gravity-removed residuals, either with one global
/// principal direction or re-fit per window with sign continuity. `seam_dir`
/// carries the previous window's direction in and the last window's out;
/// batch callers pass a zero-initialized local (no previous direction).
void anterior_channel_into(const Forces& forces, const UpField& ups,
                           double fs, double anterior_window_s, Vec3& seam_dir,
                           const Vec3* fixed_dir,
                           std::vector<double>& anterior) {
  const std::size_t n = forces.size();
  anterior.assign(n, 0.0);

  const auto project_range = [&](std::size_t begin, std::size_t end) {
    const Vec3 up = ups.window_mean(begin, end);
    Vec3 dir = fixed_dir ? *fixed_dir
                         : forces.principal_dir(begin, end, up);
    // Sign continuity: PCA is sign-ambiguous; align with the previous
    // window so the channel doesn't flip mid-trace (or mid-stream).
    if (seam_dir.norm2() > 0.0 && dir.dot(seam_dir) < 0.0) dir = -dir;
    seam_dir = dir;
    if (ups.is_constant()) {
      // Exact expression-order replica of the Vec3 loop below.
      const std::size_t count = end - begin;
      dsp::simd::residual_project(
          forces.x.subspan(begin, count), forces.y.subspan(begin, count),
          forces.z.subspan(begin, count), ups.constant(), dir,
          std::span<double>(anterior).subspan(begin, count));
      return;
    }
    for (std::size_t i = begin; i < end; ++i) {
      const Vec3 f = forces[i];
      const Vec3 residual = f - ups[i] * f.dot(ups[i]);
      anterior[i] = residual.dot(dir);
    }
  };

  if (anterior_window_s <= 0.0) {
    project_range(0, n);
    return;
  }
  const auto window =
      std::max<std::size_t>(32, static_cast<std::size_t>(anterior_window_s * fs));
  std::size_t begin = 0;
  while (begin < n) {
    std::size_t end = std::min(begin + window, n);
    // Avoid a tiny tail window: merge it into the previous one.
    if (n - end < window / 2) end = n;
    project_range(begin, end);
    begin = end;
  }
}

void project_common_into(const Forces& forces, double fs, double lowpass_hz,
                         double anterior_window_s, const UpField& ups,
                         dsp::Workspace* ws, Vec3& seam_dir,
                         const Vec3* fixed_dir, ProjectedTrace& out) {
  // Raw (pre-filter) channels in per-thread scratch: both are transient
  // inputs to the zero-phase filter, so reusing them across calls removes
  // the two per-hop vector constructions the streaming path used to pay.
  thread_local std::vector<double> vertical;
  thread_local std::vector<double> anterior;
  vertical.resize(forces.size());
  if (ups.is_constant()) {
    dsp::simd::axis_project(forces.x, forces.y, forces.z, ups.constant(),
                            kGravity, vertical);
  } else {
    for (std::size_t i = 0; i < forces.size(); ++i) {
      vertical[i] = forces[i].dot(ups[i]) - kGravity;
    }
  }
  anterior_channel_into(forces, ups, fs, anterior_window_s, seam_dir,
                        fixed_dir, anterior);
  finish_into(vertical, anterior, fs, lowpass_hz, ws, out);
}

/// Float32 gravity estimate: lane-parallel float filtfilt + per-channel
/// means, widened to a double direction (the three axis components carry
/// their error into every projected sample, so they are kept in double).
Vec3 estimate_up_f32(std::span<const float> x, std::span<const float> y,
                     std::span<const float> z, double fs, double cutoff_hz,
                     dsp::Workspace& ws) {
  expects(x.size() >= 4, "estimate_up_f32: >= 4 samples");
  const double fc = std::min(cutoff_hz, 0.45 * fs);
  const std::array<std::span<const float>, 3> chans{x, y, z};
  const auto means =
      dsp::filtfilt_multif_mean(dsp::butterworth_lowpass(2, fc, fs), chans,
                                64, ws);
  const Vec3 g{static_cast<double>(means[0]), static_cast<double>(means[1]),
               static_cast<double>(means[2])};
  check(g.norm() > 1e-6, "estimate_up_f32: gravity magnitude not degenerate");
  return g.normalized();
}

/// Float32 principal horizontal direction: the per-sample residual
/// projections run in float through the SIMD kernel; the 2x2 covariance is
/// accumulated in double over those float coordinates.
Vec3 principal_horizontal_f32(std::span<const float> x,
                              std::span<const float> y,
                              std::span<const float> z, const Vec3& up,
                              dsp::Workspace& ws) {
  const std::size_t n = x.size();
  expects(n > 0, "principal_horizontal_f32: non-empty");
  const Vec3 ref = std::abs(up.z) < 0.9 ? kVertical : kAnterior;
  const Vec3 e1 = up.cross(ref).normalized();
  const Vec3 e2 = up.cross(e1).normalized();

  auto& scratch = ws.float_scratch(1, 2 * n);
  const std::span<float> ta(scratch.data(), n);
  const std::span<float> tb(scratch.data() + n, n);
  dsp::simd::residual_projectf(x, y, z, up, e1, ta);
  dsp::simd::residual_projectf(x, y, z, up, e2, tb);

  double m1 = 0.0;
  double m2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    m1 += static_cast<double>(ta[i]);
    m2 += static_cast<double>(tb[i]);
  }
  m1 /= static_cast<double>(n);
  m2 /= static_cast<double>(n);
  double s11 = 0.0;
  double s12 = 0.0;
  double s22 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = static_cast<double>(ta[i]) - m1;
    const double b = static_cast<double>(tb[i]) - m2;
    s11 += a * a;
    s12 += a * b;
    s22 += b * b;
  }

  const double tr = s11 + s22;
  const double det = s11 * s22 - s12 * s12;
  const double lambda =
      0.5 * tr + std::sqrt(std::max(0.25 * tr * tr - det, 0.0));
  double v1;
  double v2;
  if (std::abs(s12) > 1e-12) {
    v1 = lambda - s22;
    v2 = s12;
  } else if (s11 >= s22) {
    v1 = 1.0;
    v2 = 0.0;
  } else {
    v1 = 0.0;
    v2 = 1.0;
  }
  return (e1 * v1 + e2 * v2).normalized();
}

/// Splits a trace into channel arrays and projects them (the Trace
/// adapters' shared body).
ProjectedTrace project_split(const imu::Trace& trace, double lowpass_hz,
                             double anterior_window_s,
                             std::span<const Vec3> ups, dsp::Workspace* ws) {
  ProjectedTrace out;
  project_channels_into(trace.accel_axis(0), trace.accel_axis(1),
                        trace.accel_axis(2), trace.fs(), lowpass_hz,
                        anterior_window_s, ups, ws, nullptr, {}, out);
  return out;
}

}  // namespace

ProjectedTrace project_trace(const imu::Trace& trace, double lowpass_hz,
                             double anterior_window_s, dsp::Workspace* ws) {
  return project_split(trace, lowpass_hz, anterior_window_s, {}, ws);
}

ProjectedTrace project_trace_with_attitude(const imu::Trace& trace,
                                           double lowpass_hz,
                                           double anterior_window_s,
                                           dsp::Workspace* ws) {
  expects(trace.size() >= 16, "project_trace_with_attitude: >= 16 samples");
  dsp::AttitudeEstimator estimator;
  std::vector<Vec3> ups;
  ups.reserve(trace.size());
  for (const imu::Sample& s : trace.samples()) {
    ups.push_back(estimator.update(s.gyro, s.accel, trace.dt()));
  }
  return project_split(trace, lowpass_hz, anterior_window_s, ups, ws);
}

void project_channels_into(std::span<const double> ax,
                           std::span<const double> ay,
                           std::span<const double> az, double fs,
                           double lowpass_hz, double anterior_window_s,
                           std::span<const Vec3> ups, dsp::Workspace* ws,
                           ProjectionSeam* seam, const AxisHistory& axes,
                           ProjectedTrace& out) {
  expects(ax.size() >= 16, "project_channels: >= 16 samples");
  expects(ax.size() == ay.size() && ay.size() == az.size(),
          "project_channels: equal channel lengths");
  expects(ups.empty() || ups.size() == ax.size(),
          "project_channels: ups empty or one per sample");
  expects(axes.empty() ||
              (axes.ax.size() == axes.ay.size() &&
               axes.ay.size() == axes.az.size() && axes.ax.size() >= 16),
          "project_channels: axis spans equal-length and >= 16 samples");
  expects(fs > 0.0, "project_channels: fs > 0");
  expects(lowpass_hz > 0.0, "project_channels: lowpass_hz > 0");
  PTRACK_OBS_SPAN("ptrack.core.project");
  PTRACK_COUNT("ptrack.core.projections");
  const Forces forces{ax, ay, az};
  Vec3 local_seam{};
  Vec3& seam_dir = seam ? seam->prev_anterior_dir : local_seam;
  // Axes pinned to the wider history when one is given (up from its
  // gravity estimate unless a per-sample track is supplied, anterior
  // principal direction from its horizontal residual); otherwise both come
  // from the projected span itself.
  const AxisHistory hist = axes.empty() ? AxisHistory{ax, ay, az} : axes;
  const UpField up_field =
      ups.empty() ? UpField(dsp::estimate_up(hist.ax, hist.ay, hist.az, fs,
                                             0.3, ws))
                  : UpField(ups);
  Vec3 pinned_dir{};
  if (!axes.empty()) {
    const Vec3 up = ups.empty() ? up_field.constant()
                                : up_field.window_mean(0, ups.size());
    pinned_dir =
        dsp::principal_horizontal_direction(axes.ax, axes.ay, axes.az, up);
  }
  project_common_into(forces, fs, lowpass_hz, anterior_window_s, up_field, ws,
                      seam_dir, axes.empty() ? nullptr : &pinned_dir, out);
}

void project_channels_into(std::span<const float> ax,
                           std::span<const float> ay,
                           std::span<const float> az, double fs,
                           double lowpass_hz, double anterior_window_s,
                           dsp::Workspace& ws, ProjectionSeam* seam,
                           const AxisHistoryF& axes, ProjectedTraceF& out) {
  expects(ax.size() >= 16, "project_channels (f32): >= 16 samples");
  expects(ax.size() == ay.size() && ay.size() == az.size(),
          "project_channels (f32): equal channel lengths");
  expects(axes.empty() ||
              (axes.ax.size() == axes.ay.size() &&
               axes.ay.size() == axes.az.size() && axes.ax.size() >= 16),
          "project_channels (f32): axis spans equal-length and >= 16 samples");
  expects(fs > 0.0, "project_channels (f32): fs > 0");
  expects(lowpass_hz > 0.0, "project_channels (f32): lowpass_hz > 0");
  PTRACK_OBS_SPAN("ptrack.core.project");
  PTRACK_COUNT("ptrack.core.projections");

  const std::span<const float> hx = axes.empty() ? ax : axes.ax;
  const std::span<const float> hy = axes.empty() ? ay : axes.ay;
  const std::span<const float> hz = axes.empty() ? az : axes.az;
  const Vec3 up = estimate_up_f32(hx, hy, hz, fs, 0.3, ws);

  Vec3 local_seam{};
  Vec3& seam_dir = seam ? seam->prev_anterior_dir : local_seam;
  const std::size_t n = ax.size();
  // Raw channels in per-thread scratch (see project_common_into).
  thread_local std::vector<float> vertical;
  thread_local std::vector<float> anterior;
  vertical.resize(n);
  anterior.resize(n);
  dsp::simd::axis_projectf(ax, ay, az, up, static_cast<float>(kGravity),
                           vertical);

  const auto project_range = [&](std::size_t begin, std::size_t end,
                                 const Vec3* pinned_dir) {
    const std::size_t count = end - begin;
    Vec3 dir = pinned_dir
                   ? *pinned_dir
                   : principal_horizontal_f32(ax.subspan(begin, count),
                                              ay.subspan(begin, count),
                                              az.subspan(begin, count), up,
                                              ws);
    if (seam_dir.norm2() > 0.0 && dir.dot(seam_dir) < 0.0) dir = -dir;
    seam_dir = dir;
    dsp::simd::residual_projectf(
        ax.subspan(begin, count), ay.subspan(begin, count),
        az.subspan(begin, count), up, dir,
        std::span<float>(anterior).subspan(begin, count));
  };

  if (!axes.empty()) {
    // Axes pinned to the wider history: one fixed anterior direction.
    const Vec3 dir = principal_horizontal_f32(hx, hy, hz, up, ws);
    project_range(0, n, &dir);
  } else if (anterior_window_s <= 0.0) {
    project_range(0, n, nullptr);
  } else {
    const auto window = std::max<std::size_t>(
        32, static_cast<std::size_t>(anterior_window_s * fs));
    std::size_t begin = 0;
    while (begin < n) {
      std::size_t end = std::min(begin + window, n);
      if (n - end < window / 2) end = n;
      project_range(begin, end, nullptr);
      begin = end;
    }
  }

  out.fs = fs;
  out.vertical.resize(n);
  out.anterior.resize(n);
  const double fc = std::min(lowpass_hz, 0.45 * fs);
  const std::array<std::span<const float>, 2> ins{std::span<const float>(
                                                      vertical.data(), n),
                                                  std::span<const float>(
                                                      anterior.data(), n)};
  const std::array<std::span<float>, 2> outs{out.vertical, out.anterior};
  dsp::filtfilt_multif_into(dsp::butterworth_lowpass(4, fc, fs), ins, 64, ws,
                            outs);
}

}  // namespace ptrack::core
