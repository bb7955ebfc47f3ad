// Internal dispatch plumbing for dsp::simd — the per-ISA kernel table and
// the canonical scalar kernels every ISA must reproduce bit for bit.
//
// The scalar kernels below are the *definition* of each kernel's result:
// reductions keep kDoubleBlock independent partial accumulators
// (one per vector lane position) combined pairwise, elementwise maps fix
// one expression-tree order per element. A vector implementation is correct
// exactly when it computes the same thing — same lanes, same combine, no
// FMA — so the scalar fallback (and the PTRACK_SIMD=OFF build) is not an
// approximation of the SIMD path but its reference.
//
// Not a public header: include only from simd*.cpp.

#pragma once

#include <algorithm>
#include <cstddef>

#include "common/vec3.hpp"
#include "dsp/biquad.hpp"
#include "dsp/simd.hpp"

namespace ptrack::dsp::simd::detail {

/// Upper bound on cascade sections the lane-parallel IIR kernels support
/// (order 16 — the tree uses order <= 4).
inline constexpr std::size_t kMaxSections = 8;

/// One entry per kernel; each ISA provides a table of these.
struct KernelTable {
  double (*dot_d)(const double*, const double*, std::size_t);
  double (*sumsq_dev_d)(const double*, std::size_t, double);
  Vec3 (*weighted_sum3_d)(const double*, const double*, const double*,
                          const double*, std::size_t);
  Moments3 (*moments3_d)(const double*, const double*, const double*,
                         std::size_t, Vec3);
  void (*axis_project_d)(const double*, const double*, const double*,
                         std::size_t, Vec3, double, double*);
  void (*residual_project_d)(const double*, const double*, const double*,
                             std::size_t, Vec3, Vec3, double*);
  void (*negate_d)(const double*, std::size_t, double*);
  void (*sub_scalar_d)(const double*, std::size_t, double, double*);
  void (*diff_div_d)(const double*, const double*, std::size_t, double,
                     double*);
  double (*min_until_greater_fwd_d)(const double*, std::size_t, double);
  double (*min_until_greater_bwd_d)(const double*, std::size_t, double);
  void (*normalize_lags_d)(const double*, std::size_t, std::size_t, double,
                           double*);
  void (*cascade_multi_d)(const BiquadCoeffs*, std::size_t, double*,
                          std::size_t, bool, double*);
};

/// The canonical scalar table (always compiled).
const KernelTable& scalar_table();

#ifdef PTRACK_SIMD_HAVE_AVX2
const KernelTable& avx2_table();
#endif
#ifdef PTRACK_SIMD_HAVE_NEON
const KernelTable& neon_table();
#endif

// --- Canonical scalar kernels ----------------------------------------------

/// Pairwise combine of the partial accumulators — the fixed order a vector
/// horizontal sum reproduces.
inline double combine_block(const double* acc) {
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

inline double dot_canonical(const double* a, const double* b, std::size_t n) {
  constexpr std::size_t B = kDoubleBlock;
  double acc[B] = {};
  std::size_t i = 0;
  for (; i + B <= n; i += B) {
    for (std::size_t j = 0; j < B; ++j) acc[j] += a[i + j] * b[i + j];
  }
  double total = combine_block(acc);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

inline double sumsq_dev_canonical(const double* xs, std::size_t n,
                                  double mean) {
  constexpr std::size_t B = kDoubleBlock;
  double acc[B] = {};
  std::size_t i = 0;
  for (; i + B <= n; i += B) {
    for (std::size_t j = 0; j < B; ++j) {
      const double d = xs[i + j] - mean;
      acc[j] += d * d;
    }
  }
  double total = combine_block(acc);
  for (; i < n; ++i) {
    const double d = xs[i] - mean;
    total += d * d;
  }
  return total;
}

inline Vec3 weighted_sum3_canonical(const double* w, const double* x,
                                    const double* y, const double* z,
                                    std::size_t n) {
  constexpr std::size_t B = kDoubleBlock;
  double ax[B] = {};
  double ay[B] = {};
  double az[B] = {};
  std::size_t i = 0;
  for (; i + B <= n; i += B) {
    for (std::size_t j = 0; j < B; ++j) {
      const double wj = w[i + j];
      ax[j] += wj * x[i + j];
      ay[j] += wj * y[i + j];
      az[j] += wj * z[i + j];
    }
  }
  Vec3 total{combine_block(ax), combine_block(ay), combine_block(az)};
  for (; i < n; ++i) {
    total.x += w[i] * x[i];
    total.y += w[i] * y[i];
    total.z += w[i] * z[i];
  }
  return total;
}

/// Adds one sample's deviations to the running moments (the serial tail
/// order every ISA shares).
inline void add_moments(Moments3& m, double dx, double dy, double dz) {
  m.sum.x += dx;
  m.sum.y += dy;
  m.sum.z += dz;
  m.xx += dx * dx;
  m.xy += dx * dy;
  m.xz += dx * dz;
  m.yy += dy * dy;
  m.yz += dy * dz;
  m.zz += dz * dz;
}

inline Moments3 moments3_canonical(const double* x, const double* y,
                                   const double* z, std::size_t n,
                                   Vec3 shift) {
  constexpr std::size_t B = kDoubleBlock;
  // acc[k] holds moment k's lane partials: x y z xx xy xz yy yz zz.
  double acc[9][B] = {};
  std::size_t i = 0;
  for (; i + B <= n; i += B) {
    for (std::size_t j = 0; j < B; ++j) {
      const double dx = x[i + j] - shift.x;
      const double dy = y[i + j] - shift.y;
      const double dz = z[i + j] - shift.z;
      acc[0][j] += dx;
      acc[1][j] += dy;
      acc[2][j] += dz;
      acc[3][j] += dx * dx;
      acc[4][j] += dx * dy;
      acc[5][j] += dx * dz;
      acc[6][j] += dy * dy;
      acc[7][j] += dy * dz;
      acc[8][j] += dz * dz;
    }
  }
  Moments3 m;
  m.sum = {combine_block(acc[0]), combine_block(acc[1]),
           combine_block(acc[2])};
  m.xx = combine_block(acc[3]);
  m.xy = combine_block(acc[4]);
  m.xz = combine_block(acc[5]);
  m.yy = combine_block(acc[6]);
  m.yz = combine_block(acc[7]);
  m.zz = combine_block(acc[8]);
  for (; i < n; ++i) {
    add_moments(m, x[i] - shift.x, y[i] - shift.y, z[i] - shift.z);
  }
  return m;
}

inline void axis_project_canonical(const double* x, const double* y,
                                   const double* z, std::size_t n, Vec3 u,
                                   double bias, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = ((x[i] * u.x + y[i] * u.y) + z[i] * u.z) - bias;
  }
}

inline void residual_project_canonical(const double* x, const double* y,
                                       const double* z, std::size_t n,
                                       Vec3 up, Vec3 dir, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double t = (x[i] * up.x + y[i] * up.y) + z[i] * up.z;
    const double rx = x[i] - up.x * t;
    const double ry = y[i] - up.y * t;
    const double rz = z[i] - up.z * t;
    out[i] = (rx * dir.x + ry * dir.y) + rz * dir.z;
  }
}

inline void negate_canonical(const double* xs, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = -xs[i];
}

inline void sub_scalar_canonical(const double* xs, std::size_t n, double m,
                                 double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = xs[i] - m;
}

inline void diff_div_canonical(const double* hi, const double* lo,
                               std::size_t n, double div, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = (hi[i] - lo[i]) / div;
}

inline double min_until_greater_fwd_canonical(const double* xs, std::size_t n,
                                              double h) {
  double m = h;
  for (std::size_t i = 0; i < n; ++i) {
    m = std::min(m, xs[i]);
    if (xs[i] > h) break;
  }
  return m;
}

inline double min_until_greater_bwd_canonical(const double* xs, std::size_t n,
                                              double h) {
  double m = h;
  for (std::size_t i = n; i-- > 0;) {
    m = std::min(m, xs[i]);
    if (xs[i] > h) break;
  }
  return m;
}

inline void normalize_lags_canonical(const double* raw, std::size_t n,
                                     std::size_t nlags, double den,
                                     double* out) {
  for (std::size_t lag = 0; lag < nlags; ++lag) {
    const double scale =
        static_cast<double>(n) / static_cast<double>(n - lag);
    out[lag] = std::clamp(raw[lag] * scale / den, -1.0, 1.0);
  }
}

/// Lane-parallel biquad cascade; per lane this is exactly Biquad::step's
/// update order, so any lane matches a single-channel BiquadCascade run.
/// `state` (nullable, cascade_state_size(nsec) values) seeds the sections
/// and receives their final state; null starts from zero.
inline void cascade_multi_canonical(const BiquadCoeffs* sections,
                                    std::size_t nsec, double* data,
                                    std::size_t n, bool backward,
                                    double* state) {
  BiquadCoeffs cs[kMaxSections];
  double s1[kMaxSections][kIirLanes] = {};
  double s2[kMaxSections][kIirLanes] = {};
  for (std::size_t s = 0; s < nsec; ++s) {
    cs[s] = sections[s];
    if (state != nullptr) {
      std::copy_n(state + (2 * s) * kIirLanes, kIirLanes, s1[s]);
      std::copy_n(state + (2 * s + 1) * kIirLanes, kIirLanes, s2[s]);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    double* x = data + (backward ? n - 1 - k : k) * kIirLanes;
    for (std::size_t s = 0; s < nsec; ++s) {
      for (std::size_t j = 0; j < kIirLanes; ++j) {
        const double y = cs[s].b0 * x[j] + s1[s][j];
        s1[s][j] = cs[s].b1 * x[j] - cs[s].a1 * y + s2[s][j];
        s2[s][j] = cs[s].b2 * x[j] - cs[s].a2 * y;
        x[j] = y;
      }
    }
  }
  if (state == nullptr) return;
  for (std::size_t s = 0; s < nsec; ++s) {
    std::copy_n(s1[s], kIirLanes, state + (2 * s) * kIirLanes);
    std::copy_n(s2[s], kIirLanes, state + (2 * s + 1) * kIirLanes);
  }
}

}  // namespace ptrack::dsp::simd::detail
