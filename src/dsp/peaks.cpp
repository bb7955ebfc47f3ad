#include "dsp/peaks.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/error.hpp"
#include "dsp/simd.hpp"

namespace ptrack::dsp {

namespace {

// Raw local maxima of xs from index i (>= 1) on, plateau-aware: calls
// on_max(start, center) for each maximum, with the first sample and the
// center of its flat top. Returns where a scan of a longer xs (the same
// samples followed by new ones) resumes: the start of a plateau still open
// at the right edge, else the last sample.
template <typename OnMax>
std::size_t scan_maxima(std::span<const double> xs, std::size_t i,
                        OnMax&& on_max) {
  const std::size_t n = xs.size();
  while (i + 1 < n) {
    if (xs[i] > xs[i - 1]) {
      // Scan a possible plateau [i, j].
      std::size_t j = i;
      while (j + 1 < n && xs[j + 1] == xs[i]) ++j;
      if (j + 1 < n && xs[j + 1] < xs[i]) on_max(i, (i + j) / 2);
      if (j + 1 == n) return i;  // plateau still open at the edge
      i = j + 1;
    } else {
      ++i;
    }
  }
  return i;
}

void raw_maxima_into(std::span<const double> xs, std::vector<std::size_t>& out) {
  out.clear();
  if (xs.size() < 3) return;
  scan_maxima(xs, 1, [&](std::size_t, std::size_t center) {
    // ptrack-lint: allow(alloc) grows caller scratch; steady capacity
    out.push_back(center);
  });
}

double prominence_of(std::span<const double> xs, std::size_t peak) {
  const double h = xs[peak];
  // Walk left until a sample higher than the peak (or the edge); track the
  // minimum on the way. Same to the right. Prominence = h - max(minL, minR).
  // min is exact, so the blockwise SIMD scans match the scalar walks bit
  // for bit.
  const double left_min = simd::min_until_greater_bwd(xs.first(peak), h);
  const double right_min = simd::min_until_greater_fwd(
      xs.subspan(peak + 1), h);
  return h - std::max(left_min, right_min);
}

void enforce_min_distance(std::span<const double> xs,
                          std::vector<std::size_t>& peaks,
                          std::size_t min_distance) {
  if (min_distance <= 1 || peaks.size() < 2) return;
  // Peaks already spaced at least min_distance apart lose nothing (the
  // common case for step peaks).
  if (std::adjacent_find(peaks.begin(), peaks.end(),
                         [&](std::size_t a, std::size_t b) {
                           return b - a < min_distance;
                         }) == peaks.end()) {
    return;
  }
  // Greedy by height: keep taller peaks, drop any neighbor that is too close
  // to an already kept peak. Scratch is thread-local so steady-state callers
  // stop paying per-call allocations once the high-water capacity is reached.
  thread_local std::vector<std::size_t> by_height;
  thread_local std::vector<unsigned char> keep;
  // ptrack-lint: push-allow(alloc) per-thread scratch; steady capacity
  by_height.assign(peaks.begin(), peaks.end());
  std::sort(by_height.begin(), by_height.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] > xs[b]; });
  keep.assign(peaks.size(), 1);
  // ptrack-lint: pop-allow(alloc)
  const auto pos_of = [&](std::size_t idx) {
    return static_cast<std::size_t>(
        std::lower_bound(peaks.begin(), peaks.end(), idx) - peaks.begin());
  };
  for (std::size_t idx : by_height) {
    const std::size_t p = pos_of(idx);
    if (keep[p] == 0) continue;
    // Drop shorter neighbors within min_distance.
    for (std::size_t q = p; q-- > 0;) {
      if (peaks[p] - peaks[q] >= min_distance) break;
      keep[q] = 0;
    }
    for (std::size_t q = p + 1; q < peaks.size(); ++q) {
      if (peaks[q] - peaks[p] >= min_distance) break;
      keep[q] = 0;
    }
  }
  // In-place compaction of the survivors (stable).
  std::size_t w = 0;
  for (std::size_t i = 0; i < peaks.size(); ++i)
    if (keep[i] != 0) peaks[w++] = peaks[i];
  // ptrack-lint: allow(alloc) shrinks in place; resize never grows here
  peaks.resize(w);
}

}  // namespace

void find_peaks_into(std::span<const double> xs, const PeakOptions& opt,
                     std::vector<std::size_t>& out) {
  raw_maxima_into(xs, out);

  if (opt.min_height > -1e300) {
    std::erase_if(out, [&](std::size_t i) { return xs[i] < opt.min_height; });
  }
  if (opt.min_prominence > 0.0) {
    std::erase_if(out, [&](std::size_t i) {
      return prominence_of(xs, i) < opt.min_prominence;
    });
  }
  enforce_min_distance(xs, out, opt.min_distance);
}

PeakScan::PeakScan(std::size_t min_distance, double min_prominence,
                   std::size_t half_window, std::size_t depth)
    : min_distance_(min_distance),
      min_prominence_(min_prominence),
      half_window_(half_window),
      depth_(depth) {
  expects(min_distance >= 1 && half_window >= 1 && depth >= 1,
          "PeakScan: min_distance, half_window and depth >= 1");
}

void PeakScan::reserve(std::size_t maxima) {
  // ptrack-lint: allow(alloc) setup-time reservation
  maxima_.reserve(maxima);
}

void PeakScan::scan(std::span<const double> xs, std::size_t first, bool flush,
                    std::vector<std::size_t>& out) {
  const std::size_t end = first + xs.size();
  PTRACK_CHECK_MSG(first <= min_required(),
                   "PeakScan: window holds every sample still needed");
  if (xs.size() >= 3) {
    const std::size_t from = std::max(resume_, first + 1) - first;
    resume_ = first + scan_maxima(xs, from, [&](std::size_t start,
                                                std::size_t center) {
      // ptrack-lint: allow(alloc) grows the cache; steady capacity
      maxima_.push_back({first + start, first + center, xs[center], false});
    });
  }

  // Prominence, once the right walk's window is complete (or at the end).
  for (; walked_ < maxima_.size(); ++walked_) {
    Maximum& m = maxima_[walked_];
    if (!flush && m.at + half_window_ >= end) break;
    const std::size_t lo = m.at > half_window_ ? m.at - half_window_ : 0;
    const std::size_t hi = std::min(end, m.at + half_window_ + 1);
    const double left_min = simd::min_until_greater_bwd(
        xs.subspan(lo - first, m.at - lo), m.height);
    const double right_min = simd::min_until_greater_fwd(
        xs.subspan(m.at + 1 - first, hi - m.at - 1), m.height);
    m.candidate = m.height - std::max(left_min, right_min) >= min_prominence_;
  }

  // Decide each maximum, in order, once the maxima its verdict reads are
  // found (later ones lie at or after resume_) and walked.
  for (; decided_ < walked_; ++decided_) {
    const Verdict v = kept(decided_, depth_, end, flush);
    if (v == Verdict::kOpen) break;
    // ptrack-lint: allow(alloc) grows caller scratch; steady capacity
    if (v == Verdict::kKept) out.push_back(maxima_[decided_].at);
  }

  // Drop decided maxima that no undecided or future decision reaches.
  const std::size_t reach = depth_ * min_distance_;
  const std::size_t horizon = pending_from();
  std::size_t drop = 0;
  while (drop < decided_ && maxima_[drop].at + reach <= horizon) ++drop;
  maxima_.erase(maxima_.begin(),
                maxima_.begin() + static_cast<std::ptrdiff_t>(drop));
  walked_ -= drop;
  decided_ -= drop;
}

PeakScan::Verdict PeakScan::kept(std::size_t i, std::size_t level,
                                 std::size_t end, bool flush) const {
  const Maximum& m = maxima_[i];
  if (!m.candidate) return Verdict::kDropped;
  if (level == 0) return Verdict::kKept;
  // Every maximum closer than min_distance is found and walked.
  if (!flush && (m.at + min_distance_ > resume_ ||
                 m.at + min_distance_ + half_window_ > end)) {
    return Verdict::kOpen;
  }
  Verdict verdict = Verdict::kKept;
  const auto visit = [&](std::size_t k) {
    const Maximum& q = maxima_[k];
    if (q.height < m.height || (q.height == m.height && q.at > m.at)) {
      return false;
    }
    const Verdict v = kept(k, level - 1, end, flush);
    if (v == Verdict::kOpen) verdict = Verdict::kOpen;
    return v == Verdict::kKept;
  };
  for (std::size_t k = i; k-- > 0 && m.at - maxima_[k].at < min_distance_;) {
    if (visit(k)) return Verdict::kDropped;
  }
  for (std::size_t k = i + 1;
       k < maxima_.size() && maxima_[k].at - m.at < min_distance_; ++k) {
    if (visit(k)) return Verdict::kDropped;
  }
  return verdict;
}

std::size_t PeakScan::min_required() const {
  // The raw-maxima search reads from resume_ - 1; a walk reaches
  // half_window_ back from its maximum, and unfound maxima lie at or
  // after resume_.
  const std::size_t from =
      walked_ < maxima_.size() ? std::min(maxima_[walked_].at, resume_)
                               : resume_;
  return from > half_window_ ? from - half_window_ : 0;
}

std::size_t PeakScan::pending_from() const {
  return decided_ < maxima_.size() ? std::min(maxima_[decided_].at, resume_)
                                   : resume_;
}

std::vector<std::size_t> find_peaks(std::span<const double> xs,
                                    const PeakOptions& opt) {
  std::vector<std::size_t> peaks;
  find_peaks_into(xs, opt, peaks);
  return peaks;
}

void find_valleys_into(std::span<const double> xs, const PeakOptions& opt,
                       std::vector<std::size_t>& out) {
  thread_local std::vector<double> neg;
  // ptrack-lint: allow(alloc) per-thread scratch; steady capacity
  neg.resize(xs.size());
  simd::negate(xs, neg);
  find_peaks_into(neg, opt, out);
}

std::vector<std::size_t> find_valleys(std::span<const double> xs,
                                      const PeakOptions& opt) {
  std::vector<std::size_t> valleys;
  find_valleys_into(xs, opt, valleys);
  return valleys;
}

void zero_crossings_into(std::span<const double> xs, double hysteresis,
                         std::vector<std::size_t>& out) {
  out.clear();
  if (xs.empty()) return;
  // State: +1 after confirmed positive excursion, -1 after negative,
  // 0 unknown. The hysteresis only *gates* a crossing; the reported index
  // is the actual sign-change sample, found by backtracking — otherwise
  // crossings would be reported systematically late by the confirmation
  // delay, which matters for critical-point matching.
  int state = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double v = xs[i];
    const int side = v > hysteresis ? 1 : v < -hysteresis ? -1 : 0;
    if (side == 0 || side == state) continue;
    if (state != 0) {
      std::size_t cross = i;
      while (cross > 0 &&
             (side > 0 ? xs[cross - 1] >= 0.0 : xs[cross - 1] <= 0.0)) {
        --cross;
      }
      // ptrack-lint: allow(alloc) grows caller scratch; steady capacity
      out.push_back(cross);
    }
    state = side;
  }
}

std::vector<std::size_t> zero_crossings(std::span<const double> xs,
                                        double hysteresis) {
  std::vector<std::size_t> out;
  zero_crossings_into(xs, hysteresis, out);
  return out;
}

double peak_prominence(std::span<const double> xs, std::size_t peak) {
  return prominence_of(xs, peak);
}

void find_extrema_into(std::span<const double> xs, const PeakOptions& opt,
                       std::vector<Extremum>& out) {
  thread_local std::vector<std::size_t> maxima;
  thread_local std::vector<std::size_t> minima;
  find_peaks_into(xs, opt, maxima);
  find_valleys_into(xs, opt, minima);
  out.clear();
  // ptrack-lint: push-allow(alloc) grows caller scratch; steady capacity
  out.reserve(maxima.size() + minima.size());
  for (std::size_t i : maxima) out.push_back({i, true, xs[i]});
  for (std::size_t i : minima) out.push_back({i, false, xs[i]});
  // ptrack-lint: pop-allow(alloc)
  std::sort(out.begin(), out.end(),
            [](const Extremum& a, const Extremum& b) { return a.index < b.index; });
}

std::vector<Extremum> find_extrema(std::span<const double> xs,
                                   const PeakOptions& opt) {
  std::vector<Extremum> out;
  find_extrema_into(xs, opt, out);
  return out;
}

}  // namespace ptrack::dsp
