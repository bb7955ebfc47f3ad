#include "dsp/integrate.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace ptrack::dsp {

std::vector<double> cumtrapz(std::span<const double> xs, double dt) {
  expects(dt > 0.0, "cumtrapz: dt > 0");
  std::vector<double> out(xs.size(), 0.0);
  for (std::size_t i = 1; i < xs.size(); ++i) {
    out[i] = out[i - 1] + 0.5 * (xs[i - 1] + xs[i]) * dt;
  }
  return out;
}

Kinematics integrate_twice(std::span<const double> accel, double dt) {
  Kinematics k;
  k.velocity = cumtrapz(accel, dt);
  k.position = cumtrapz(k.velocity, dt);
  return k;
}

namespace {

// Streaming-scalar mean-removal double integration: the recurrences
//   v[i] = v[i-1] + 0.5*((a[i-1]-m) + (a[i]-m))*dt
//   p[i] = p[i-1] + 0.5*(v[i-1] + v[i])*dt
// evaluate in the same order and with the same roundings as the
// materialized cumtrapz(demeaned(...)) chain, so the per-sample visitor
// sees bit-identical positions to the vector-based originals — without
// touching the heap (these run per candidate cycle on the streaming hot
// path). The visitor receives every position including p[0] == 0; the
// return value is the final position.
template <typename Visit>
double scan_mean_removal(std::span<const double> accel, double dt,
                         Visit&& visit) {
  const double m = stats::mean(accel);
  double c_prev = accel[0] - m;
  double v_prev = 0.0;
  double p_prev = 0.0;
  visit(p_prev);
  for (std::size_t i = 1; i < accel.size(); ++i) {
    const double c = accel[i] - m;
    const double vi = v_prev + 0.5 * (c_prev + c) * dt;
    p_prev = p_prev + 0.5 * (v_prev + vi) * dt;
    visit(p_prev);
    c_prev = c;
    v_prev = vi;
  }
  return p_prev;
}

}  // namespace

double net_displacement(std::span<const double> accel, double dt) {
  if (accel.size() < 2) return 0.0;
  expects(dt > 0.0, "net_displacement: dt > 0");
  return scan_mean_removal(accel, dt, [](double) {});
}

double peak_to_peak_displacement(std::span<const double> accel, double dt) {
  if (accel.size() < 2) return 0.0;
  expects(dt > 0.0, "peak_to_peak_displacement: dt > 0");
  double mn = 0.0;
  double mx = 0.0;
  scan_mean_removal(accel, dt, [&](double p) {
    mn = std::min(mn, p);
    mx = std::max(mx, p);
  });
  return mx - mn;
}

}  // namespace ptrack::dsp
