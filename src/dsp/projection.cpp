#include "dsp/projection.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/simd.hpp"
#include "dsp/workspace.hpp"

namespace ptrack::dsp {

template <typename T>
Vec3 estimate_up(std::span<const T> x, std::span<const T> y,
                 std::span<const T> z, double fs, double cutoff_hz,
                 Workspace& ws) {
  expects(x.size() >= 4, "estimate_up: >= 4 samples");
  expects(x.size() == y.size() && y.size() == z.size(),
          "estimate_up: equal channel lengths");
  expects(fs > 0.0, "estimate_up: fs > 0");
  // Heavy low-pass, then average: cyclic components vanish, gravity remains.
  // Per channel the filtered mean is bit-identical to a single-channel
  // zero_phase_lowpass followed by a serial mean.
  const double fc = std::min(cutoff_hz, 0.45 * fs);
  const std::array<std::span<const T>, 3> chans{x, y, z};
  const auto means =
      filtfilt_multi_mean(butterworth_lowpass(2, fc, fs), chans, 64, ws);
  const Vec3 g{static_cast<double>(means[0]), static_cast<double>(means[1]),
               static_cast<double>(means[2])};
  check(g.norm() > 1e-6, "estimate_up: gravity magnitude not degenerate");
  return g.normalized();
}

template <typename T>
Vec3 principal_horizontal_direction(std::span<const T> x,
                                    std::span<const T> y,
                                    std::span<const T> z, const Vec3& up) {
  expects(x.size() == y.size() && y.size() == z.size(),
          "principal_horizontal_direction: equal channel lengths");
  const std::size_t n = x.size();
  expects(n > 0, "principal_horizontal_direction: non-empty");
  // Orthonormal horizontal basis (e1, e2) perpendicular to up.
  const Vec3 ref = std::abs(up.z) < 0.9 ? kVertical : kAnterior;
  const Vec3 e1 = up.cross(ref).normalized();
  const Vec3 e2 = up.cross(e1).normalized();

  // Horizontal-residual coordinates via the SIMD projection kernel (an
  // exact expression-order replica of the Vec3 arithmetic). Per-thread
  // scratch, not workspace scratch: a server holds one workspace per
  // stream, and this buffer spans the whole axis history.
  thread_local std::vector<T> ta;
  thread_local std::vector<T> tb;
  // ptrack-lint: push-allow(alloc) per-thread scratch; steady capacity
  ta.resize(n);
  tb.resize(n);
  // ptrack-lint: pop-allow(alloc)
  simd::residual_project(x, y, z, up, e1, std::span<T>(ta));
  simd::residual_project(x, y, z, up, e2, std::span<T>(tb));

  // 2x2 covariance of the horizontal residual in (e1, e2), in double.
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

  // Leading eigenvector of [[s11, s12], [s12, s22]].
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

template Vec3 estimate_up<double>(std::span<const double>,
                                  std::span<const double>,
                                  std::span<const double>, double, double,
                                  Workspace&);
template Vec3 estimate_up<float>(std::span<const float>,
                                 std::span<const float>,
                                 std::span<const float>, double, double,
                                 Workspace&);
template Vec3 principal_horizontal_direction<double>(std::span<const double>,
                                                     std::span<const double>,
                                                     std::span<const double>,
                                                     const Vec3&);
template Vec3 principal_horizontal_direction<float>(std::span<const float>,
                                                    std::span<const float>,
                                                    std::span<const float>,
                                                    const Vec3&);

ProjectedSignal project(std::span<const double> x, std::span<const double> y,
                        std::span<const double> z, double fs) {
  Workspace ws;
  ProjectedSignal out;
  out.fs = fs;
  out.up = estimate_up(x, y, z, fs, 0.3, ws);
  out.forward = principal_horizontal_direction(x, y, z, out.up);
  const Vec3 side = out.up.cross(out.forward).normalized();
  // ptrack-lint: push-allow(alloc) batch-only result vectors for the
  // baseline models; the streaming path projects through core's frontend
  out.vertical.resize(x.size());
  out.anterior.resize(x.size());
  out.lateral.resize(x.size());
  // ptrack-lint: pop-allow(alloc)
  // Specific force f = a_lin - g_vec with g_vec = -g*up, so the linear
  // vertical acceleration is f.up - g.
  simd::axis_project(x, y, z, out.up, kGravity, out.vertical);
  simd::axis_project(x, y, z, out.forward, 0.0, out.anterior);
  simd::axis_project(x, y, z, side, 0.0, out.lateral);
  return out;
}

}  // namespace ptrack::dsp
