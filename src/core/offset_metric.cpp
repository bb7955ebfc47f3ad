#include "core/offset_metric.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/error.hpp"

namespace ptrack::core {

double cycle_offset(std::span<const CriticalPoint> vertical_points,
                    std::span<const CriticalPoint> anterior_points,
                    std::size_t n, bool use_weighting) {
  expects(n >= 1, "cycle_offset: n >= 1");
  // Both point sets come out of critical_points(), which sorts by index;
  // the weighting below reads consecutive index gaps and would underflow
  // on unsorted input.
  PTRACK_CHECK_MSG(
      std::is_sorted(vertical_points.begin(), vertical_points.end(),
                     [](const CriticalPoint& a, const CriticalPoint& b) {
                       return a.index < b.index;
                     }),
      "cycle_offset: vertical critical points are time-ordered");
  PTRACK_CHECK_MSG(
      std::is_sorted(anterior_points.begin(), anterior_points.end(),
                     [](const CriticalPoint& a, const CriticalPoint& b) {
                       return a.index < b.index;
                     }),
      "cycle_offset: anterior critical points are time-ordered");
  if (vertical_points.empty()) return 0.0;
  if (anterior_points.empty()) return 1.0;

  const double nd = static_cast<double>(n);
  double offset = 0.0;
  std::size_t prev_index = 0;  // cycle start anchors the first weight
  for (const CriticalPoint& nv : vertical_points) {
    // Closest anterior critical point (anterior_points sorted by index).
    double best = nd;
    for (const CriticalPoint& na : anterior_points) {
      const double dist = std::abs(static_cast<double>(na.index) -
                                   static_cast<double>(nv.index));
      best = std::min(best, dist);
    }
    const double w =
        use_weighting
            ? std::min(static_cast<double>(nv.index - prev_index) / nd,
                       kWeightCap)
            : 1.0;
    offset += w * best / nd;
    prev_index = nv.index;
  }
  // Eq. (1) is a normalized weighted score: every term is >= 0, and with
  // the weighting active the weights sum to at most max_index/n <= 1 while
  // each distance term is <= 1, so the total stays inside [0, 1].
  static_assert(kWeightCap <= 1.0);
  PTRACK_CHECK_MSG(std::isfinite(offset) && offset >= 0.0,
                   "cycle_offset is non-negative and finite");
  if (use_weighting) {
    PTRACK_CHECK_MSG(offset <= 1.0 + 1e-9,
                     "weighted cycle_offset is normalized to [0, 1]");
  }
  return offset;
}

}  // namespace ptrack::core
