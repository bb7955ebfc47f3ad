// The PTrack stride estimator (paper SIII-C).
//
// For a *walking* cycle, the arm's anterior velocity (mean-removal integral
// of the anterior acceleration) crosses zero at the arm reversals; each
// sweep between reversals spans one step and passes the three key moments
// of Fig. 5(b): (i) one extreme, (ii) arm vertical — located at the peak
// arm speed — and (iii) the other extreme. The measured vertical
// displacements h1, h2 over the two half-sweeps and the anterior travel d
// over the sweep feed the Eq. (3)-(5) bounce solver; Eq. (2) maps bounce to
// stride. All three displacement integrals are bounded by zero-velocity
// instants, so the mean-removal technique applies (paper SIII-C1).
//
// For a *stepping* cycle, the device rides the body, so the bounce is read
// off directly as the peak-to-peak vertical displacement within each step.

#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "core/frontend.hpp"
#include "core/types.hpp"

namespace ptrack::core {

/// One per-step stride estimate produced from a cycle.
struct SweepEstimate {
  double t = 0.0;       ///< step completion time (s)
  double stride = 0.0;  ///< estimated stride (m)
  double bounce = 0.0;  ///< estimated bounce (m)
  bool valid = false;   ///< geometry solve succeeded
};

/// Fixed-capacity estimate set: a cycle holds at most two steps, so the
/// per-cycle results fit inline and the streaming hot path never allocates
/// for them.
struct SweepEstimateSet {
  std::array<SweepEstimate, 2> storage{};
  std::size_t count = 0;

  void push(const SweepEstimate& e) { storage[count++] = e; }
  [[nodiscard]] std::span<const SweepEstimate> span() const {
    return {storage.data(), count};
  }
  [[nodiscard]] bool empty() const { return count == 0; }
};

/// Span view over projected vertical/anterior channels: the zero-copy
/// handle used by the streaming pipeline, where the channels live in a
/// hop-local projection rather than a ProjectedChannels. Cycle indices and
/// returned times are relative to the span start.
struct ChannelSpans {
  std::span<const double> vertical;
  std::span<const double> anterior;
  double fs = 0.0;
};

/// Per-cycle stride estimation.
class StrideEstimator {
 public:
  explicit StrideEstimator(StrideConfig cfg = {});

  /// Estimates the (up to two) per-step strides of one classified cycle.
  /// Interference cycles yield an empty result.
  [[nodiscard]] std::vector<SweepEstimate> estimate_cycle(
      const ProjectedChannels& projected, const CycleRecord& cycle) const;

  /// Span variant; the ProjectedChannels overload delegates here.
  [[nodiscard]] std::vector<SweepEstimate> estimate_cycle(
      const ChannelSpans& channels, const CycleRecord& cycle) const;

  /// Allocation-free variant (same estimates, inline storage): what the
  /// streaming event assembler calls per confirmed cycle. The vector
  /// overloads wrap this.
  [[nodiscard]] SweepEstimateSet estimate_cycle_set(
      const ChannelSpans& channels, const CycleRecord& cycle) const;

  [[nodiscard]] const StrideConfig& config() const { return cfg_; }
  void set_profile(const StrideProfile& profile) { cfg_.profile = profile; }

 private:
  [[nodiscard]] SweepEstimateSet walking_cycle(
      const ChannelSpans& channels, const CycleRecord& cycle) const;
  [[nodiscard]] SweepEstimateSet stepping_cycle(
      const ChannelSpans& channels, const CycleRecord& cycle) const;

  StrideConfig cfg_;
};

}  // namespace ptrack::core
