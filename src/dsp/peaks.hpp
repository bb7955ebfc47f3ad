// Peak / valley / zero-crossing detection.
//
// These are the primitives behind (a) the classic peak-detection step
// counters PTrack builds on (low-pass -> peaks) and (b) PTrack's
// critical-point extraction (turning points = extrema, crossing points =
// extremum on one axis aligned with a zero on the other).

#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ptrack::dsp {

/// Options for find_peaks().
struct PeakOptions {
  /// Minimum number of samples between two accepted peaks. When two peaks
  /// are closer, the larger one wins.
  std::size_t min_distance = 1;
  /// Absolute height a sample must reach to qualify (-inf disables).
  double min_height = -1e300;
  /// Minimal prominence: height above the higher of the two bounding
  /// valleys within the search range (0 disables).
  double min_prominence = 0.0;
};

/// Indices of local maxima of xs, honoring the options; ascending order.
/// Plateaus report their center sample.
std::vector<std::size_t> find_peaks(std::span<const double> xs,
                                    const PeakOptions& opt = {});

/// Reuse-friendly form: clears and refills `out`. Once `out` (and the
/// thread-local scratch behind the distance filter) has reached its
/// high-water capacity, repeated calls stop touching the heap — this is the
/// variant the steady-state streaming stages use.
void find_peaks_into(std::span<const double> xs, const PeakOptions& opt,
                     std::vector<std::size_t>& out);

/// Incremental find_peaks_into() over a sliding window of one growing
/// signal. Each scan() gets the window [first, first + xs.size()) of a
/// signal whose samples never change once seen, and both window edges may
/// only move forward between calls (a call that moves either back starts
/// over). `out` then holds exactly what find_peaks_into(xs, opt, out) would
/// (window-relative indices), but the call does not rescan what earlier
/// calls resolved:
///  - raw maxima are kept across calls, and the search for new ones resumes
///    where the previous call stopped (its last sample, or a plateau still
///    open at the right edge); one whose plateau starts at or before the
///    window's first sample is dropped, as a rescan could not see its rise;
///  - each maximum's prominence walks are kept with where they stopped: a
///    right walk that ran off the old end continues over the new samples
///    only (min is exact, so the result is unchanged), and a left walk that
///    ran off the old start is redone once the start moves past it;
///  - min-distance suppression runs over all surviving maxima of the
///    window, with the same body as find_peaks_into().
/// Walk results are bit-identical for finite samples. A fresh scanner's
/// first call is one full scan. Once its buffers have reached their
/// high-water capacity, calls stop touching the heap.
class PeakScan {
 public:
  /// Pre-sizes the raw-maxima cache (setup time).
  void reserve(std::size_t maxima);

  void scan(std::span<const double> xs, std::size_t first,
            const PeakOptions& opt, std::vector<std::size_t>& out);

 private:
  /// One raw maximum (absolute indices) and its walks so far.
  struct Maximum {
    std::size_t start;  ///< first sample of its plateau
    std::size_t at;     ///< reported index (plateau center)
    double left_min;    ///< walk over [left_from, at)
    double right_min;   ///< walk over (at, right_to)
    std::size_t left_from;
    std::size_t right_to;
    bool left_done;     ///< walk met a higher sample (at left_from)
    bool right_done;    ///< walk met a higher sample (at right_to - 1)
    bool walked;        ///< walks computed at least once
  };

  static void update_walks(Maximum& m, std::span<const double> xs,
                           std::size_t first);

  std::vector<Maximum> maxima_;
  std::size_t first_ = 0;   ///< previous window
  std::size_t end_ = 0;
  std::size_t resume_ = 0;  ///< where the raw-maxima search continues
};

/// Indices of local minima (peaks of the negated signal).
std::vector<std::size_t> find_valleys(std::span<const double> xs,
                                      const PeakOptions& opt = {});

/// Reuse-friendly form of find_valleys(); same steady-state contract as
/// find_peaks_into().
void find_valleys_into(std::span<const double> xs, const PeakOptions& opt,
                       std::vector<std::size_t>& out);

/// Indices where the signal crosses zero (sample after the sign change).
/// `hysteresis` requires the excursion on each side to exceed the given
/// magnitude before a new crossing is reported, suppressing noise chatter.
std::vector<std::size_t> zero_crossings(std::span<const double> xs,
                                        double hysteresis = 0.0);

/// Reuse-friendly form of zero_crossings(): clears and refills `out`;
/// allocation-free once `out` has warmed up.
void zero_crossings_into(std::span<const double> xs, double hysteresis,
                         std::vector<std::size_t>& out);

/// One extremum with its kind, used by critical-point analysis.
struct Extremum {
  std::size_t index = 0;
  bool is_max = true;
  double value = 0.0;
};

/// All alternating extrema (maxima and minima interleaved) with prominence
/// and spacing filtering applied per kind.
std::vector<Extremum> find_extrema(std::span<const double> xs,
                                   const PeakOptions& opt = {});

/// Reuse-friendly form of find_extrema(); same steady-state contract as
/// find_peaks_into().
void find_extrema_into(std::span<const double> xs, const PeakOptions& opt,
                       std::vector<Extremum>& out);

/// Prominence of the local maximum at `peak` (see PeakOptions); exposed for
/// counters that post-filter peaks against locally adaptive thresholds.
double peak_prominence(std::span<const double> xs, std::size_t peak);

}  // namespace ptrack::dsp
