// Incremental stage graph: the shared zero-copy core behind batch and
// streaming PTrack.
//
// The pipeline of Fig. 2 is decomposed into three stateful stages that
// carry their state across push/advance hops instead of recomputing the
// whole window:
//
//   imu::SampleRing --(spans)--> ProjectionStage --> SegmentationStage
//                                      |                   |
//                                  projected rings     CycleCandidates
//                                      |                   v
//                                      +----------> EventAssembler --> events
//
// Every stage reads its input through `std::span` views over rings
// addressed by *absolute* sample indices (imu::SampleRing, Ring<double>),
// so a hop touches only the new tail plus bounded context regions — no
// per-hop window materialization, and no cost that grows with stream age
// (DESIGN.md §13 lists what a steady hop does read: the new samples, the
// 20 s axis history and the segmentation lookback).
//
// Batch-oracle contract: driving a fresh StagePipeline with one push of
// the whole trace and a single advance(flush = true) degenerates every
// stage to exactly the batch computation (one projection region starting
// at 0, one peak scan, the same pairing / classification / stride / fill /
// median sequence over complete data). The batch facade (PTrack::process)
// runs this way, so batch results are bit-stable by construction and the
// streaming mode's hop-wise results are validated against them
// (tests/test_streaming_equivalence.cpp).
//
// Incremental finalization: zero-phase filtering and prominence-based peak
// detection are non-causal, so each stage keeps a margin between the data
// frontier and what it finalizes:
//   - ProjectionStage projects and filters each hop's new samples,
//     starting the zero-phase filter's forward pass from a state carried
//     across hops (core::LowpassCarry) and finalizing output only
//     `kProjectionMarginS` behind the newest sample (covers the right
//     reflect pad and the backward pass's settling); a hop without a
//     carried state re-projects a `kProjectionCtxS` context region from
//     zero state instead and seeds one;
//   - SegmentationStage finds peaks over the region from
//     `kSegmentationLookbackS` before its acceptance frontier, accepting
//     new ones only `kSegmentationMarginS` behind the projected frontier
//     (covers the min-distance suppression window and prominence walks);
//     the region is not rescanned: dsp::PeakScan carries its raw maxima
//     and their prominence walks across hops, so a hop scans only the
//     samples the previous one could not resolve and accepts exactly the
//     peaks a rescan of the region would;
//   - EventAssembler withholds cycles in an open stepping streak
//     (<= streak-1) and events whose median-smoothing window is still
//     open (<= smooth_window/2 future events).
// Finalized output is never retracted.

#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/ring.hpp"
#include "core/frontend.hpp"
#include "core/gait_id.hpp"
#include "core/segmentation.hpp"
#include "core/stride_estimator.hpp"
#include "core/types.hpp"
#include "dsp/peaks.hpp"
#include "dsp/projection.hpp"
#include "dsp/workspace.hpp"
#include "imu/sample_ring.hpp"

namespace ptrack::core {

/// Finalization margins (s). See the header comment for what each covers.
/// kProjectionCtxS is the context behind the finalized frontier that the
/// projection fits its axes over when they are not pinned (stream start,
/// windowed anterior mode) and that a hop without a carried low-pass
/// state re-projects to seed one; a steady hop filters only its new
/// samples.
inline constexpr double kProjectionCtxS = 3.0;
inline constexpr double kProjectionMarginS = 2.5;
/// Trailing raw-history window (s) the projection estimates its up /
/// anterior axes over when advancing incrementally. Axes fit only to the
/// short per-hop re-projection span wander with local gestures (and flip
/// borderline offset tests); 20 s of history keeps them as steady as a
/// 20 s batch window would. A batch flush spans the whole trace in one region,
/// where the history and the projected span coincide and the axes reduce
/// to the batch estimate exactly.
/// Because every steady hop pins exactly this many samples, the gravity
/// estimate's weights over it are one shared, precomputed table.
inline constexpr double kProjectionAxisWindowS = 20.0;
inline constexpr double kSegmentationLookbackS = 5.0;
inline constexpr double kSegmentationMarginS = 1.8;

/// Cumulative per-stage wall-clock cost (µs); zeros when obs is disabled.
struct StageStats {
  double project_us = 0.0;  ///< projection + filtering
  double count_us = 0.0;    ///< segmentation + gait classification
  double stride_us = 0.0;   ///< stride estimation, fill and smoothing
  std::size_t advances = 0; ///< pipeline hops driven
};

/// Projects the raw stream's accel channels into band-limited
/// vertical/anterior channels, with the gravity estimate as the up axis,
/// finalizing samples `kProjectionMarginS` behind the raw frontier. The
/// finalized channels accumulate in absolute-indexed rings aligned with the
/// raw ring's index space. The output low-pass's forward state is carried
/// across hops over raw input lanes and converted with each hop's axes
/// (core::LowpassCarry), so a steady hop projects and filters only the
/// samples after its finalized frontier.
class ProjectionStage {
 public:
  /// `ws` (required, non-null) holds the projection's filter scratch and
  /// must outlive the stage.
  ProjectionStage(const StepCounterConfig& cfg, double fs, dsp::Workspace* ws);

  /// Advances the projected frontier over `ring`; flush finalizes up to the
  /// raw frontier. Appends only — previously finalized samples never change.
  void advance(const imu::SampleRing& ring, bool flush);

  [[nodiscard]] const Ring<double>& vertical() const { return vert_; }
  [[nodiscard]] const Ring<double>& anterior() const { return ant_; }
  /// One past the newest finalized projected sample (absolute).
  [[nodiscard]] std::size_t frontier() const { return vert_.end(); }
  /// Earliest *raw* absolute index the next advance will read.
  [[nodiscard]] std::size_t min_required() const;
  /// Drops projected samples below `new_base` (downstream consumers done).
  void trim_projected(std::size_t new_base);

  [[nodiscard]] double fs() const { return fs_; }

 private:
  StepCounterConfig cfg_;
  double fs_;
  dsp::Workspace* ws_;
  std::size_t ctx_;          ///< re-projection context (samples)
  std::size_t margin_;       ///< finalization margin (samples)
  std::size_t axis_window_;  ///< axis-estimation history (samples)
  /// Gravity weights for a full axis_window_ history: the process-wide
  /// table for this fs, taken on the first hop that pins a full window and
  /// held for the stage's lifetime, so steady hops neither look it up nor
  /// filter the history (dsp/projection.hpp).
  std::shared_ptr<const dsp::GravityWeights> up_weights_;

  /// Forward low-pass state over the raw lanes, just before vert_.end()
  /// when valid.
  LowpassCarry carry_;

  Ring<double> vert_;
  Ring<double> ant_;
  ProjectionSeam seam_{};

  /// One hop's projection region (absolute raw indices): axes fit over
  /// [begin, end) (or the pinned history [axis_begin, end)); samples from
  /// stable (carried low-pass state) or begin (zero state) projected and
  /// filtered; [stable, target) finalized.
  struct Region {
    std::size_t begin;
    std::size_t end;
    std::size_t axis_begin;
    bool pin_axes;
    std::size_t stable;
    std::size_t target;
    bool carried;
    bool flush;
  };

  // Projects the region into proj_ and appends the finalized
  // [stable, target) to the rings.
  void project_region(const imu::SampleRing& ring, const Region& r);
  // Moves the carried low-pass state to `target`: advances it over
  // [stable, target), or re-seeds it when there is none.
  void advance_carry(const imu::SampleRing& ring, const Region& r,
                     bool flush);

  // Reused per-hop projection output: project_channels_into refills it in
  // place, so re-projection stops allocating once the region capacity has
  // warmed up.
  ProjectedChannels proj_{};
};

/// Finds step peaks over the finalized projected vertical channel and pairs
/// them into candidate cycles, carrying the peak scan (dsp::PeakScan), the
/// peak list and the pairing index across hops. Candidates are emitted
/// exactly once, in order.
class SegmentationStage {
 public:
  SegmentationStage(const StepCounterConfig& cfg, double fs);

  /// Scans newly finalized projected samples; appends newly finalized
  /// candidate cycles to `out` (absolute indices).
  void advance(const Ring<double>& vertical, bool flush,
               std::vector<CycleCandidate>& out);

  /// Earliest projected absolute index the next advance will read.
  [[nodiscard]] std::size_t min_required() const;

 private:
  StepCounterConfig cfg_;
  double fs_;
  std::size_t lookback_;  ///< re-scan context behind the last final peak
  std::size_t margin_;    ///< peak finalization margin (samples)

  std::vector<std::size_t> peaks_;  ///< finalized peaks awaiting pairing
  dsp::PeakScan peak_scan_;  ///< raw maxima and walks carried across hops
  std::vector<std::size_t> scan_scratch_;  ///< per-hop peak-scan results
  std::size_t pair_index_ = 0;      ///< batch pairing loop index into peaks_
  std::size_t last_final_peak_ = 0;
  bool have_last_final_ = false;
  std::size_t scan_floor_ = 0;  ///< monotone lower bound of the scan region
};

/// Classifies candidate cycles, confirms withheld stepping streaks,
/// estimates per-step strides and finalizes events once their median
/// smoothing window closes. Given all candidates in one flushing advance
/// it is the batch classification and stride fill; hop-wise it runs the
/// same state machine, fill and moving-median arithmetic incrementally.
class EventAssembler {
 public:
  EventAssembler(const StepCounterConfig& counter_cfg,
                 const StrideConfig& stride_cfg, double fs);

  void set_profile(const StrideProfile& profile);

  /// Consumes newly finalized candidates; `vertical`/`anterior` are the
  /// projection stage's rings, `raw` supplies per-sample quality flags.
  /// Per-stage costs are accumulated into `stats` (count vs stride).
  void advance(std::span<const CycleCandidate> fresh,
               const Ring<double>& vertical, const Ring<double>& anterior,
               const imu::SampleRing& raw, bool flush, StageStats* stats);

  /// Drains finalized events (chronological; each exactly once).
  std::vector<StepEvent> take_events();
  /// Drains finalized cycle records (candidate order; each exactly once).
  std::vector<CycleRecord> take_cycles();

  /// Appends finalized events to `out` and clears the internal buffer
  /// *keeping its capacity* — the steady-state form (take_events hands the
  /// buffer away, so the next hop re-grows it from nothing).
  void drain_events(std::vector<StepEvent>& out);
  /// Discards finalized cycle records, keeping the buffer capacity (for
  /// consumers that only want events).
  void discard_cycles() { cycles_out_.clear(); }

  /// Earliest absolute index still needed (withheld cycles' channel spans
  /// and quality flags); SIZE_MAX when nothing is pending.
  [[nodiscard]] std::size_t min_required() const;

 private:
  void resolve_withheld_interference();
  void confirm(CycleRecord record, const Ring<double>& vertical,
               const Ring<double>& anterior, const imu::SampleRing& raw);
  void finalize_events(bool flush);
  [[nodiscard]] double smoothed_stride(std::size_t i,
                                       std::size_t n_total) const;

  StepCounterConfig ccfg_;
  StrideConfig scfg_;
  double fs_;
  GaitIdentifier identifier_;
  StrideEstimator estimator_;

  // Candidate bookkeeping: a gap between consecutive candidates breaks
  // any stepping streak.
  std::size_t prev_end_ = 0;
  bool have_prev_ = false;
  std::vector<CycleRecord> withheld_;  ///< open streak, <= streak-1 entries

  // Pending events: created at confirmation, finalized when their stride
  // fill and smoothing window are stable. Both rings are indexed by
  // absolute event number (one stride per event, = the batch post-fill
  // sequence); pending_events_ retains [events_final_, events_created_).
  Ring<StepEvent> pending_events_;
  Ring<double> fills_;
  std::size_t events_created_ = 0;
  std::size_t events_final_ = 0;
  bool seen_positive_ = false;
  double last_positive_ = 0.0;
  std::size_t eff_window_;  ///< effective (odd) median window, 1 = off
  std::size_t half_;

  std::vector<StepEvent> events_out_;
  std::vector<CycleRecord> cycles_out_;
  mutable std::vector<double> median_scratch_;  ///< smoothing window reuse
};

/// The three stages wired together over one raw ring. One instance serves
/// either a whole batch trace (single flush advance) or a live stream
/// (hop-wise advances); see the header comment for the equivalence
/// contract.
class StagePipeline {
 public:
  StagePipeline(const StepCounterConfig& counter_cfg,
                const StrideConfig& stride_cfg, double fs, dsp::Workspace* ws);

  void set_profile(const StrideProfile& profile);

  /// Runs every stage over the ring's new tail. With flush, finalizes all
  /// margins (stream end or batch completion; streaming may continue
  /// afterwards).
  void advance(const imu::SampleRing& ring, bool flush);

  std::vector<StepEvent> take_events() { return assembler_.take_events(); }
  std::vector<CycleRecord> take_cycles() { return assembler_.take_cycles(); }

  /// Capacity-preserving drains (see EventAssembler): the streaming hot
  /// path uses these so a hop never hands buffer capacity away.
  void drain_events(std::vector<StepEvent>& out) {
    assembler_.drain_events(out);
  }
  void discard_cycles() { assembler_.discard_cycles(); }

  /// Earliest raw absolute index any stage will still read: the caller may
  /// trim_to() its SampleRing to this after draining.
  [[nodiscard]] std::size_t min_required_index() const;

  [[nodiscard]] const StageStats& stats() const { return stats_; }
  [[nodiscard]] double fs() const { return projection_.fs(); }

 private:
  ProjectionStage projection_;
  SegmentationStage segmentation_;
  EventAssembler assembler_;
  StageStats stats_;
  std::vector<CycleCandidate> fresh_;  ///< per-advance scratch
};

}  // namespace ptrack::core
