#include "dsp/moving.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dsp/simd.hpp"

namespace ptrack::dsp {

std::vector<double> moving_average(std::span<const double> xs, std::size_t w) {
  expects(w >= 1, "moving_average: w >= 1");
  if (w % 2 == 0) ++w;
  const std::size_t half = w / 2;
  const std::size_t n = xs.size();
  std::vector<double> out(n);

  // Prefix sums give O(n) irrespective of window size.
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + xs[i];

  // Interior samples see the full window (count w), so that region is one
  // vectorizable (prefix[i+half+1] - prefix[i-half]) / w map; only the
  // clipped edges need per-sample counts. Same arithmetic per element as
  // the single loop this replaces.
  const std::size_t mid_begin = half;
  const std::size_t mid_end = n > half ? n - half : 0;
  for (std::size_t i = 0; i < std::min(mid_begin, n); ++i) {
    const std::size_t hi = std::min(i + half, n - 1);
    out[i] = (prefix[hi + 1] - prefix[0]) / static_cast<double>(hi + 1);
  }
  if (mid_begin < mid_end) {
    const std::size_t count = mid_end - mid_begin;
    simd::diff_div({prefix.data() + 2 * half + 1, count},
                   {prefix.data(), count}, static_cast<double>(w),
                   {out.data() + mid_begin, count});
  }
  for (std::size_t i = std::max(mid_end, std::min(mid_begin, n)); i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(i + half, n - 1);
    out[i] = (prefix[hi + 1] - prefix[lo]) / static_cast<double>(hi - lo + 1);
  }
  return out;
}

std::vector<double> moving_median(std::span<const double> xs, std::size_t w) {
  expects(w >= 1, "moving_median: w >= 1");
  if (w % 2 == 0) ++w;
  const std::size_t half = w / 2;
  const std::size_t n = xs.size();
  std::vector<double> out(n);
  std::vector<double> window;
  // ptrack-lint: allow(alloc) batch-only helper; not on the streaming path
  window.reserve(w);
  // ptrack-lint: push-allow(alloc) per-window refill of the local scratch

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(i + half, n - 1);
    window.assign(xs.begin() + static_cast<std::ptrdiff_t>(lo),
                  xs.begin() + static_cast<std::ptrdiff_t>(hi + 1));
    const auto mid = window.begin() + static_cast<std::ptrdiff_t>(window.size() / 2);
    std::nth_element(window.begin(), mid, window.end());
    if (window.size() % 2 == 1) {
      out[i] = *mid;
    } else {
      const double hi_mid = *mid;
      const double lo_mid = *std::max_element(window.begin(), mid);
      out[i] = 0.5 * (lo_mid + hi_mid);
    }
  }
  // ptrack-lint: pop-allow(alloc)
  return out;
}

}  // namespace ptrack::dsp
