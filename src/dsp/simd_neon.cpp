// NEON lane of dsp::simd (aarch64; NEON is baseline there, so no extra
// -m flags — only -ffp-contract=off to uphold the no-FMA contract).
//
// Reductions keep the canonical lane-position partials in two 2×double
// accumulators and combine them in the canonical pairwise order;
// elementwise maps and the lane-parallel cascade mirror the scalar
// expression trees with vmulq/vaddq (never vfmaq). The scan and
// normalization kernels reuse the canonical scalar implementations — they
// are cheap relative to the filters, and branchy early-exit scans gain
// little from 2-wide vectors — and so do the projection axis fits'
// weighted_sum3 / moments3 reductions (one pass each per hop).

#include <arm_neon.h>

#include <cstddef>

#include "dsp/simd_impl.hpp"

namespace ptrack::dsp::simd::detail {

namespace {

/// acc0 holds lane positions {0,1}, acc1 holds {2,3}:
/// (p0+p1)+(p2+p3) == vaddvq(acc0) + vaddvq(acc1) only if vaddvq pairs
/// adjacently — it does on aarch64 (vaddvq_f64 is lane0+lane1).
inline double hsum(float64x2_t acc0, float64x2_t acc1) {
  return vaddvq_f64(acc0) + vaddvq_f64(acc1);
}

double dot_neon(const double* a, const double* b, std::size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vaddq_f64(acc0, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
    acc1 = vaddq_f64(acc1,
                     vmulq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2)));
  }
  double total = hsum(acc0, acc1);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

double sumsq_dev_neon(const double* xs, std::size_t n, double mean) {
  const float64x2_t mv = vdupq_n_f64(mean);
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t d0 = vsubq_f64(vld1q_f64(xs + i), mv);
    const float64x2_t d1 = vsubq_f64(vld1q_f64(xs + i + 2), mv);
    acc0 = vaddq_f64(acc0, vmulq_f64(d0, d0));
    acc1 = vaddq_f64(acc1, vmulq_f64(d1, d1));
  }
  double total = hsum(acc0, acc1);
  for (; i < n; ++i) {
    const double d = xs[i] - mean;
    total += d * d;
  }
  return total;
}

void axis_project_neon(const double* x, const double* y, const double* z,
                       std::size_t n, Vec3 u, double bias, double* out) {
  const float64x2_t uxv = vdupq_n_f64(u.x);
  const float64x2_t uyv = vdupq_n_f64(u.y);
  const float64x2_t uzv = vdupq_n_f64(u.z);
  const float64x2_t bv = vdupq_n_f64(bias);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t d = vaddq_f64(
        vaddq_f64(vmulq_f64(vld1q_f64(x + i), uxv),
                  vmulq_f64(vld1q_f64(y + i), uyv)),
        vmulq_f64(vld1q_f64(z + i), uzv));
    vst1q_f64(out + i, vsubq_f64(d, bv));
  }
  for (; i < n; ++i) {
    out[i] = ((x[i] * u.x + y[i] * u.y) + z[i] * u.z) - bias;
  }
}

void residual_project_neon(const double* x, const double* y, const double* z,
                           std::size_t n, Vec3 up, Vec3 dir, double* out) {
  const float64x2_t uxv = vdupq_n_f64(up.x);
  const float64x2_t uyv = vdupq_n_f64(up.y);
  const float64x2_t uzv = vdupq_n_f64(up.z);
  const float64x2_t dxv = vdupq_n_f64(dir.x);
  const float64x2_t dyv = vdupq_n_f64(dir.y);
  const float64x2_t dzv = vdupq_n_f64(dir.z);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t xv = vld1q_f64(x + i);
    const float64x2_t yv = vld1q_f64(y + i);
    const float64x2_t zv = vld1q_f64(z + i);
    const float64x2_t t = vaddq_f64(
        vaddq_f64(vmulq_f64(xv, uxv), vmulq_f64(yv, uyv)),
        vmulq_f64(zv, uzv));
    const float64x2_t rx = vsubq_f64(xv, vmulq_f64(uxv, t));
    const float64x2_t ry = vsubq_f64(yv, vmulq_f64(uyv, t));
    const float64x2_t rz = vsubq_f64(zv, vmulq_f64(uzv, t));
    vst1q_f64(out + i,
              vaddq_f64(vaddq_f64(vmulq_f64(rx, dxv), vmulq_f64(ry, dyv)),
                        vmulq_f64(rz, dzv)));
  }
  for (; i < n; ++i) {
    const double t = (x[i] * up.x + y[i] * up.y) + z[i] * up.z;
    const double rx = x[i] - up.x * t;
    const double ry = y[i] - up.y * t;
    const double rz = z[i] - up.z * t;
    out[i] = (rx * dir.x + ry * dir.y) + rz * dir.z;
  }
}

void negate_neon(const double* xs, std::size_t n, double* out) {
  std::size_t i = 0;
  // vnegq flips the sign bit (preserves -0.0/+0.0), matching unary minus.
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vnegq_f64(vld1q_f64(xs + i)));
  }
  for (; i < n; ++i) out[i] = -xs[i];
}

void sub_scalar_neon(const double* xs, std::size_t n, double m, double* out) {
  const float64x2_t mv = vdupq_n_f64(m);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vsubq_f64(vld1q_f64(xs + i), mv));
  }
  for (; i < n; ++i) out[i] = xs[i] - m;
}

void diff_div_neon(const double* hi, const double* lo, std::size_t n,
                   double div, double* out) {
  const float64x2_t dv = vdupq_n_f64(div);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i,
              vdivq_f64(vsubq_f64(vld1q_f64(hi + i), vld1q_f64(lo + i)), dv));
  }
  for (; i < n; ++i) out[i] = (hi[i] - lo[i]) / div;
}

// As in the AVX2 lane: a compile-time section count keeps the recurrence
// state in registers instead of a runtime-indexed array, removing a
// store-forward round trip from the serial dependency chain.
template <std::size_t NSec>
void cascade_multi_neon_n(const BiquadCoeffs* sections, double* data,
                          std::size_t n, bool backward, double* state) {
  struct SecV {
    float64x2_t b0, b1, b2, a1, a2;
  };
  SecV cs[NSec];
  float64x2_t s1lo[NSec];
  float64x2_t s1hi[NSec];
  float64x2_t s2lo[NSec];
  float64x2_t s2hi[NSec];
  for (std::size_t s = 0; s < NSec; ++s) {
    cs[s] = {vdupq_n_f64(sections[s].b0), vdupq_n_f64(sections[s].b1),
             vdupq_n_f64(sections[s].b2), vdupq_n_f64(sections[s].a1),
             vdupq_n_f64(sections[s].a2)};
    s1lo[s] = vdupq_n_f64(0.0);
    s1hi[s] = vdupq_n_f64(0.0);
    s2lo[s] = vdupq_n_f64(0.0);
    s2hi[s] = vdupq_n_f64(0.0);
    if (state != nullptr) {
      const double* s1p = state + (2 * s) * kIirLanes;
      const double* s2p = state + (2 * s + 1) * kIirLanes;
      s1lo[s] = vld1q_f64(s1p);
      s1hi[s] = vld1q_f64(s1p + 2);
      s2lo[s] = vld1q_f64(s2p);
      s2hi[s] = vld1q_f64(s2p + 2);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    double* p = data + (backward ? n - 1 - k : k) * kIirLanes;
    float64x2_t xlo = vld1q_f64(p);
    float64x2_t xhi = vld1q_f64(p + 2);
    for (std::size_t s = 0; s < NSec; ++s) {
      const float64x2_t ylo = vaddq_f64(vmulq_f64(cs[s].b0, xlo), s1lo[s]);
      const float64x2_t yhi = vaddq_f64(vmulq_f64(cs[s].b0, xhi), s1hi[s]);
      s1lo[s] = vaddq_f64(vsubq_f64(vmulq_f64(cs[s].b1, xlo),
                                    vmulq_f64(cs[s].a1, ylo)),
                          s2lo[s]);
      s1hi[s] = vaddq_f64(vsubq_f64(vmulq_f64(cs[s].b1, xhi),
                                    vmulq_f64(cs[s].a1, yhi)),
                          s2hi[s]);
      s2lo[s] = vsubq_f64(vmulq_f64(cs[s].b2, xlo), vmulq_f64(cs[s].a2, ylo));
      s2hi[s] = vsubq_f64(vmulq_f64(cs[s].b2, xhi), vmulq_f64(cs[s].a2, yhi));
      xlo = ylo;
      xhi = yhi;
    }
    vst1q_f64(p, xlo);
    vst1q_f64(p + 2, xhi);
  }
  if (state == nullptr) return;
  for (std::size_t s = 0; s < NSec; ++s) {
    double* s1p = state + (2 * s) * kIirLanes;
    double* s2p = state + (2 * s + 1) * kIirLanes;
    vst1q_f64(s1p, s1lo[s]);
    vst1q_f64(s1p + 2, s1hi[s]);
    vst1q_f64(s2p, s2lo[s]);
    vst1q_f64(s2p + 2, s2hi[s]);
  }
}

void cascade_multi_neon(const BiquadCoeffs* sections, std::size_t nsec,
                        double* data, std::size_t n, bool backward,
                        double* state) {
  switch (nsec) {
    case 0: return;
    case 1:
      return cascade_multi_neon_n<1>(sections, data, n, backward, state);
    case 2:
      return cascade_multi_neon_n<2>(sections, data, n, backward, state);
    case 3:
      return cascade_multi_neon_n<3>(sections, data, n, backward, state);
    case 4:
      return cascade_multi_neon_n<4>(sections, data, n, backward, state);
    default: break;
  }
  cascade_multi_canonical(sections, nsec, data, n, backward, state);
}

}  // namespace

const KernelTable& neon_table() {
  static const KernelTable t = {
      &dot_neon,
      &sumsq_dev_neon,
      &weighted_sum3_canonical,
      &moments3_canonical,
      &axis_project_neon,
      &residual_project_neon,
      &negate_neon,
      &sub_scalar_neon,
      &diff_div_neon,
      &min_until_greater_fwd_canonical,
      &min_until_greater_bwd_canonical,
      &normalize_lags_canonical,
      &cascade_multi_neon,
  };
  return t;
}

}  // namespace ptrack::dsp::simd::detail
