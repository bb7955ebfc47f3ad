#include "core/bounce.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/error.hpp"

namespace ptrack::core {

namespace {

double half_chord(double r, double m) {
  // sqrt(m^2 - (m-r)^2) for r clamped to [0, m].
  r = std::clamp(r, 0.0, m);
  const double mr = m - r;
  return std::sqrt(std::max(m * m - mr * mr, 0.0));
}

}  // namespace

double sweep_width(double b, double h1, double h2, double m) {
  return half_chord(h1 + b, m) + half_chord(h2 + b, m);
}

BounceSolution solve_bounce(double h1, double h2, double d, double m) {
  expects(m > 0.0, "solve_bounce: m > 0");
  expects(d > 0.0, "solve_bounce: d > 0");

  BounceSolution out;
  // Physical branch: r_i = h_i + b in [0, m]  =>  b in [b_lo, b_hi].
  const double b_lo = std::max({0.0, -h1, -h2});
  const double b_hi = std::min(m - h1, m - h2);
  if (b_hi <= b_lo) {
    out.bounce = std::max(b_lo, 0.0);
    return out;
  }

  const double f_lo = sweep_width(b_lo, h1, h2, m) - d;
  const double f_hi = sweep_width(b_hi, h1, h2, m) - d;
  if (f_lo > 0.0) {
    // Arm travel already exceeds d with zero bounce: no root; the best
    // physical estimate is the branch edge.
    out.bounce = b_lo;
    return out;
  }
  if (f_hi < 0.0) {
    out.bounce = b_hi;
    return out;
  }

  double lo = b_lo;
  double hi = b_hi;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double f = sweep_width(mid, h1, h2, m) - d;
    // An iteration that leaves (lo, hi) as they were is a fixed point:
    // every later one would repeat it, so stopping there is exact.
    double& end = f < 0.0 ? lo : hi;
    if (end == mid) break;
    end = mid;
  }
  out.bounce = 0.5 * (lo + hi);
  out.valid = true;
  // Eq. (3)-(5) solve for a physical vertical bounce: a non-negative length
  // inside the bracketing branch [b_lo, b_hi].
  PTRACK_CHECK_MSG(std::isfinite(out.bounce) && out.bounce >= 0.0,
                   "solve_bounce: bounce is a non-negative length");
  PTRACK_CHECK_MSG(out.bounce >= b_lo && out.bounce <= b_hi,
                   "solve_bounce: root stays inside the physical branch");
  return out;
}

double stride_from_bounce(double bounce, double leg_length, double k) {
  expects(leg_length > 0.0, "stride_from_bounce: l > 0");
  expects(k > 0.0, "stride_from_bounce: k > 0");
  bounce = std::clamp(bounce, 0.0, leg_length);
  const double lb = leg_length - bounce;
  const double stride =
      k * std::sqrt(std::max(leg_length * leg_length - lb * lb, 0.0));
  // Eq. (2): the stride is a chord of the leg's inverted-pendulum arc — a
  // non-negative length bounded by the full diameter k * l.
  PTRACK_CHECK_MSG(std::isfinite(stride) && stride >= 0.0 &&
                       stride <= k * leg_length + 1e-12,
                   "stride_from_bounce: stride is a bounded length");
  return stride;
}

}  // namespace ptrack::core
