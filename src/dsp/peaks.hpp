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

/// Step-peak detection over a growing signal, decided incrementally.
/// Raw maxima are find_peaks()'s (plateau-aware, center reported). Unlike
/// find_peaks(), every decision reads a bounded neighbourhood of the peak:
///  - prominence walks are bounded like scipy's `wlen`: from a maximum at
///    p, each walk covers at most `half_window` samples (left down to
///    max(0, p - half_window), right up to p + half_window, clipped to the
///    signal) and stops at the first sample higher than the maximum; a
///    maximum is a candidate when its prominence is >= `min_prominence`;
///  - min-distance suppression is find_peaks()'s greedy by height (ties:
///    the earlier wins) followed `depth` levels deep: a candidate is kept
///    unless a taller candidate closer than `min_distance` is kept at the
///    level below, and at level 0 every candidate is kept. Along a chain
///    of at most `depth` ever taller candidates each closer than
///    min_distance to the next, this is the greedy result.
/// Each peak is decided, in order, as soon as its verdict is determined:
/// at the latest once the signal reaches p + depth * min_distance +
/// half_window, at p + min_distance + half_window when no taller candidate
/// is that close. So a signal fed in any number of scan() calls yields the
/// peaks one flushing scan() over all of it yields. Once its buffers have reached their high-water capacity, calls
/// stop touching the heap.
class PeakScan {
 public:
  /// `min_distance`, `half_window` and `depth` are >= 1 (samples, samples,
  /// levels).
  PeakScan(std::size_t min_distance, double min_prominence,
           std::size_t half_window, std::size_t depth);

  /// Pre-sizes the raw-maxima cache (setup time).
  void reserve(std::size_t maxima);

  /// `xs` holds samples [first, first + xs.size()) of the signal, up to its
  /// newest one; `first` <= min_required(). Appends the absolute indices
  /// of the peaks this call decides to `out` (ascending). With `flush` the
  /// signal is taken to end at xs's end, and every maximum found so far is
  /// decided.
  void scan(std::span<const double> xs, std::size_t first, bool flush,
            std::vector<std::size_t>& out);

  /// Earliest absolute sample a later scan() reads.
  [[nodiscard]] std::size_t min_required() const;
  /// Every peak a later scan() reports lies at or after this index.
  [[nodiscard]] std::size_t pending_from() const;

 private:
  /// One raw maximum (absolute indices).
  struct Maximum {
    std::size_t start;  ///< first sample of its plateau
    std::size_t at;     ///< reported index (plateau center)
    double height;
    bool candidate;     ///< prominence >= min_prominence, once walked
  };

  enum class Verdict : unsigned char { kKept, kDropped, kOpen };
  // Whether maxima_[i] is kept at `level` (see the class comment); kOpen
  // while a maximum the verdict reads is not found or walked yet.
  [[nodiscard]] Verdict kept(std::size_t i, std::size_t level,
                             std::size_t end, bool flush) const;

  std::size_t min_distance_;
  double min_prominence_;
  std::size_t half_window_;
  std::size_t depth_;
  std::vector<Maximum> maxima_;  ///< by position; decided prefix kept
  std::size_t walked_ = 0;       ///< maxima_[0, walked_) walked
  std::size_t decided_ = 0;      ///< maxima_[0, decided_) decided
  std::size_t resume_ = 0;       ///< where the raw-maxima search continues
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
