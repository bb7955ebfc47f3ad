#include "dsp/projection.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/simd.hpp"
#include "dsp/workspace.hpp"

namespace ptrack::dsp {

namespace {

/// Odd-reflection pad of the gravity filter on each side: 64 samples,
/// clamped so at least one interior sample is never mirrored.
std::size_t gravity_pad(std::size_t n) {
  return std::min<std::size_t>(64, n - 1);
}

/// One zero-state biquad pass over buf[0, m), forward or backward, in
/// direct form I with the state in registers: the feedback product a1 *
/// y[k-1] is the only serial dependency, so a pass costs about one
/// multiply-subtract of latency per sample. (A scattered look-ahead form
/// with half the chain length measured slower: it doubles the work per
/// sample.)
void biquad_pass(const BiquadCoeffs& c, double* buf, std::size_t m,
                 bool backward) {
  double x1 = 0.0;
  double x2 = 0.0;
  double y1 = 0.0;
  double y2 = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    double& v = buf[backward ? m - 1 - k : k];
    const double x = v;
    const double y =
        (c.b0 * x + c.b1 * x1 + c.b2 * x2 - c.a2 * y2) - c.a1 * y1;
    x2 = x1;
    x1 = x;
    y2 = y1;
    y1 = y;
    v = y;
  }
}

}  // namespace

std::size_t gravity_weights_scratch(std::size_t n) {
  expects(n >= 1, "gravity_weights_scratch: >= 1 sample");
  return n + 2 * gravity_pad(n);
}

std::span<const double> gravity_weights_into(std::size_t n, double fs,
                                             double cutoff_hz,
                                             std::span<double> scratch) {
  expects(n >= 4, "gravity_weights_into: >= 4 samples");
  expects(fs > 0.0, "gravity_weights_into: fs > 0");
  const std::size_t pad = gravity_pad(n);
  expects(scratch.size() == n + 2 * pad,
          "gravity_weights_into: scratch sized by gravity_weights_scratch");

  // filtfilt of the interior indicator: forward, then backward, each from
  // zero state. The order-2 design is a single section. The forward pass
  // starts at the interior: over the leading zeros a zero-state filter
  // stays exactly zero.
  const BiquadCascade filter =
      butterworth_lowpass(2, std::min(cutoff_hz, 0.45 * fs), fs);
  const BiquadCoeffs& c = filter.sections().front().coeffs();
  double* buf = scratch.data();
  std::fill(buf, buf + pad, 0.0);
  std::fill(buf + pad, buf + pad + n, 1.0);
  std::fill(buf + pad + n, buf + scratch.size(), 0.0);
  biquad_pass(c, buf + pad, n + pad, false);
  biquad_pass(c, buf, scratch.size(), true);

  // Fold each padded sample's weight onto the samples it was reflected
  // from: left pad sample i holds 2 x[0] - x[pad - i], right pad sample
  // pad + n - 1 + k holds 2 x[n-1] - x[n-1-k]. The weight of x[j] is
  // accumulated in place at scratch[pad + j].
  double* w = buf + pad;
  for (std::size_t i = 0; i < pad; ++i) {
    const double v = buf[i];
    w[0] += 2.0 * v;
    w[pad - i] -= v;
  }
  for (std::size_t k = 1; k <= pad; ++k) {
    const double v = w[n - 1 + k];
    w[n - 1] += 2.0 * v;
    w[n - 1 - k] -= v;
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t j = 0; j < n; ++j) w[j] *= inv_n;
  return {w, n};
}

GravityWeights::GravityWeights(std::size_t n, double fs, double cutoff_hz)
    : fs_(fs),
      cutoff_hz_(cutoff_hz),
      storage_(gravity_weights_scratch(n)),
      weights_(gravity_weights_into(n, fs, cutoff_hz, storage_)),
      cumulative_(n + 1, 0.0) {
  for (std::size_t j = 0; j < n; ++j) {
    cumulative_[j + 1] = cumulative_[j] + weights_[j];
  }
}

namespace {

struct Registry {
  std::mutex mu;
  /// Least recently requested first.
  std::vector<std::shared_ptr<const GravityWeights>> tables;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// use_count() == 1: only the registry holds the table, and no one can take
/// a new reference without the registry lock.
bool unheld(const std::shared_ptr<const GravityWeights>& t) {
  return t.use_count() == 1;
}

}  // namespace

std::shared_ptr<const GravityWeights> shared_gravity_weights(
    std::size_t n, double fs, double cutoff_hz) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  auto& tables = reg.tables;
  auto it = std::find_if(tables.begin(), tables.end(), [&](const auto& t) {
    return t->size() == n && t->fs() == fs && t->cutoff_hz() == cutoff_hz;
  });
  if (it != tables.end()) {
    std::rotate(it, it + 1, tables.end());
  } else {
    // ptrack-lint: push-allow(alloc) one table per key in use; warm-up only
    tables.push_back(std::make_shared<const GravityWeights>(n, fs, cutoff_hz));
    // ptrack-lint: pop-allow(alloc)
  }
  // Keep the returned table and drop the least recently requested unheld
  // ones until the unheld total, the returned table counted as if its
  // holder had already let go, is within the budget.
  std::size_t unheld_bytes = tables.back()->bytes();
  for (auto t = tables.rbegin() + 1; t != tables.rend(); ++t) {
    if (unheld(*t)) unheld_bytes += (*t)->bytes();
  }
  for (auto t = tables.begin();
       unheld_bytes > kGravityRegistryUnheldBytes && t + 1 != tables.end();) {
    if (unheld(*t)) {
      unheld_bytes -= (*t)->bytes();
      t = tables.erase(t);
    } else {
      ++t;
    }
  }
  return tables.back();
}

GravityRegistryStats gravity_registry_stats() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  GravityRegistryStats stats;
  for (const auto& t : reg.tables) {
    ++stats.tables;
    stats.bytes += t->bytes();
    if (unheld(t)) stats.unheld_bytes += t->bytes();
  }
  return stats;
}

Vec3 estimate_up(std::span<const double> x, std::span<const double> y,
                 std::span<const double> z, std::span<const double> w) {
  const std::size_t n = x.size();
  expects(n >= 4, "estimate_up: >= 4 samples");
  expects(n == y.size() && n == z.size() && n == w.size(),
          "estimate_up: equal channel and weight lengths");
  // The gravity estimate's linear functional: one weighted sum per channel,
  // in double.
  const Vec3 g = simd::weighted_sum3(w, x, y, z);
  check(g.norm() > 1e-6, "estimate_up: gravity magnitude not degenerate");
  return g.normalized();
}

Vec3 estimate_up(std::span<const double> x, std::span<const double> y,
                 std::span<const double> z, double fs, double cutoff_hz,
                 Workspace& ws) {
  expects(x.size() >= 4, "estimate_up: >= 4 samples");
  const std::span<double> scratch =
      ws.real_scratch(gravity_weights_scratch(x.size()));
  return estimate_up(x, y, z,
                     gravity_weights_into(x.size(), fs, cutoff_hz, scratch));
}

Vec3 principal_horizontal_direction(std::span<const double> x,
                                    std::span<const double> y,
                                    std::span<const double> z,
                                    const Vec3& up) {
  expects(x.size() == y.size() && y.size() == z.size(),
          "principal_horizontal_direction: equal channel lengths");
  expects(!x.empty(), "principal_horizontal_direction: non-empty");
  // One pass of first and second moments of d = f - f[0] in double.
  const Vec3 f0{x[0], y[0], z[0]};
  return principal_horizontal_direction(simd::moments3(x, y, z, f0), x.size(),
                                        up);
}

Vec3 principal_horizontal_direction(const simd::Moments3& m, std::size_t n,
                                    const Vec3& up) {
  expects(n > 0, "principal_horizontal_direction: non-empty");
  // Orthonormal horizontal basis (e1, e2) perpendicular to up.
  const Vec3 ref = std::abs(up.z) < 0.9 ? kVertical : kAnterior;
  const Vec3 e1 = up.cross(ref).normalized();
  const Vec3 e2 = up.cross(e1).normalized();

  // The scatter matrix about the mean, C = sum d d^T - (sum d)(sum d)^T / n,
  // and its horizontal 2x2 block s_ab = e_a^T C e_b.
  const auto count = static_cast<double>(n);
  const double cxx = m.xx - m.sum.x * m.sum.x / count;
  const double cxy = m.xy - m.sum.x * m.sum.y / count;
  const double cxz = m.xz - m.sum.x * m.sum.z / count;
  const double cyy = m.yy - m.sum.y * m.sum.y / count;
  const double cyz = m.yz - m.sum.y * m.sum.z / count;
  const double czz = m.zz - m.sum.z * m.sum.z / count;
  const auto apply_c = [&](const Vec3& v) {
    return Vec3{cxx * v.x + cxy * v.y + cxz * v.z,
                cxy * v.x + cyy * v.y + cyz * v.z,
                cxz * v.x + cyz * v.y + czz * v.z};
  };
  const double s11 = e1.dot(apply_c(e1));
  const double s12 = e1.dot(apply_c(e2));
  const double s22 = e2.dot(apply_c(e2));

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

ProjectedSignal project(std::span<const double> x, std::span<const double> y,
                        std::span<const double> z, double fs) {
  Workspace ws;
  ProjectedSignal out;
  out.fs = fs;
  out.up = estimate_up(x, y, z, fs, kGravityCutoffHz, ws);
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
