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
// per-hop window materialization, and no cost that grows with stream age.
//
// Batch-oracle contract: every value a stage finalizes is a function of
// the samples alone, computed on a grid anchored at sample 0, never of
// where a hop ended. So a stream advanced at any hop, in any chunking,
// emits exactly the events of one flushing advance over the whole trace,
// which is what the batch facade (PTrack::process) runs; batch is the
// oracle the streaming mode is checked against, field for field
// (tests/test_streaming_equivalence.cpp).
//
// Incremental finalization: zero-phase filtering and prominence-based peak
// detection are non-causal, so each stage finalizes only what later
// samples can no longer change:
//   - ProjectionStage projects each grid block of B = grid_block(fs)
//     samples (1 s) once the raw ring reaches its end, with axes fit over
//     the trailing axis window ending there, and runs the output
//     low-pass's forward pass over it (core::GridLowpass). At each grid
//     point g it finalizes the samples below g - kSettleBlocks * B with a
//     backward pass from g. A flush projects the final partial block with
//     the last grid fit's axes and finalizes the rest from there. The
//     axis window is whole blocks, and each block's taper-weighted gravity
//     sums, for the full window and for every warm-up window that weighs
//     it sample by sample, are taken when the block is (ProjectionStage),
//     so from a stream's first fit on the stage keeps raw samples only
//     from the block being filled: the raw ring's retention is then set by
//     segmentation and the assembler, a few seconds.
//   - SegmentationStage finds step peaks with prominence windows bounded
//     to kPeakWindowS and greedy min-distance suppression followed
//     kSuppressionDepth levels deep (dsp::PeakScan), so a peak is final
//     at the latest kPeakWindowS plus kSuppressionDepth min distances
//     behind the projected frontier, and pairs them into candidate cycles;
//   - EventAssembler withholds cycles in an open stepping streak
//     (<= streak-1) and events whose median-smoothing window is still
//     open (<= smooth_window/2 future events).
// Finalized output is never retracted.

#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/ring.hpp"
#include "common/vec3.hpp"
#include "core/frontend.hpp"
#include "core/gait_id.hpp"
#include "core/stride_estimator.hpp"
#include "core/types.hpp"
#include "dsp/peaks.hpp"
#include "dsp/projection.hpp"
#include "dsp/simd.hpp"
#include "imu/sample_ring.hpp"
#include "imu/trace.hpp"

namespace ptrack::core {

/// Half-length (s) of a step peak's prominence window (scipy's wlen / 2).
inline constexpr double kPeakWindowS = 1.0;
/// Minimum prominence (m/s^2) of a segmentation step peak.
inline constexpr double kMinCycleProminence = 0.5;
/// Longest step interval (s) a candidate cycle may span; slower peak pairs
/// are rejected.
inline constexpr double kMaxStepIntervalS = 1.20;
/// Levels of greedy min-distance suppression a peak decision follows
/// (dsp::PeakScan): chains of ever taller step peaks longer than this are
/// cut, so a peak is final at the latest kPeakWindowS plus this many min
/// distances after it.
inline constexpr std::size_t kSuppressionDepth = 2;

/// One candidate gait cycle: two consecutive step intervals, between three
/// step peaks (absolute sample indices). Cycles do not overlap.
struct CycleCandidate {
  std::size_t begin = 0;  ///< opening step peak
  std::size_t mid = 0;    ///< middle step peak (half-cycle boundary)
  std::size_t end = 0;    ///< closing step peak (exclusive bound)
};

/// Cumulative per-stage wall-clock cost (µs); zeros when obs is disabled.
struct StageStats {
  double project_us = 0.0;  ///< projection + filtering
  double count_us = 0.0;    ///< segmentation + gait classification
  double stride_us = 0.0;   ///< stride estimation, fill and smoothing
  std::size_t advances = 0; ///< pipeline hops driven
};

/// Projects the raw stream's accel channels into band-limited
/// vertical/anterior channels on the block grid (see the header comment
/// and core/frontend.hpp). The finalized channels accumulate in
/// absolute-indexed rings aligned with the raw ring's index space.
class ProjectionStage {
 public:
  /// cfg.anterior_window_s must span at least one grid block.
  ProjectionStage(const StepCounterConfig& cfg, double fs);

  /// Projects every grid block the raw ring now covers; flush also
  /// projects the partial block up to the raw frontier (given >= 16 raw
  /// samples) with the last grid fit's axes, or fit over the whole stream
  /// before its first fit, and finalizes everything. Appends only —
  /// previously finalized samples never change. The filter scratch is the
  /// calling thread's (dsp::thread_workspace), taken for this call only.
  void advance(const imu::SampleRing& ring, bool flush);

  [[nodiscard]] const Ring<double>& vertical() const {
    return lowpass_.vertical();
  }
  [[nodiscard]] const Ring<double>& anterior() const {
    return lowpass_.anterior();
  }
  /// One past the newest finalized projected sample (absolute).
  [[nodiscard]] std::size_t frontier() const { return lowpass_.final_end(); }
  /// Earliest *raw* absolute index the next advance will read: the
  /// stream's start until its first fit, then the start of the block
  /// being filled.
  [[nodiscard]] std::size_t min_required() const;
  /// Drops projected samples below `new_base` (downstream consumers done).
  void trim_projected(std::size_t new_base) {
    lowpass_.trim_output(new_base);
  }

  [[nodiscard]] double fs() const { return fs_; }

 private:
  // Projects raw samples [projected_, e) with axes_ straight into the
  // low-pass's input.
  void project_to(const imu::SampleRing& ring, std::size_t e,
                  dsp::Workspace& ws);
  struct Axes {
    Vec3 up;
    Vec3 anterior;
  };
  // Fits the axes over the axis window ending at e: a grid point, or the
  // end of a stream shorter than its first fit.
  Axes fit_axes(const imu::SampleRing& ring, std::size_t e);
  // Takes the moments and taper sums of every whole block below e not yet
  // taken.
  void take_blocks(const imu::SampleRing& ring, std::size_t e);
  // Whether a window of `blocks` grid blocks weighs its block at position
  // p sample by sample (within kTaperS of either end).
  [[nodiscard]] bool tapered(std::size_t p, std::size_t blocks) const {
    return p * block_ < taper_ || (p + 1) * block_ + taper_ > blocks * block_;
  }
  // The shortest warm-up window (in blocks) that holds block k. Block k's
  // warm-up sums are stored for the windows from this one up that weigh
  // it sample by sample; those are consecutive.
  [[nodiscard]] std::size_t first_warm_window(std::size_t k) const {
    return std::max(first_fit_ / block_, k + 1);
  }

  double fs_;
  std::size_t block_;        ///< grid block (samples)
  std::size_t axis_window_;  ///< trailing axis window: whole grid blocks
  std::size_t taper_;        ///< kTaperS (samples)
  std::size_t first_fit_;    ///< grid point of a stream's first fit
  /// Block positions in a full window weighed sample by sample (within
  /// kTaperS of either end), ascending.
  std::vector<std::size_t> taper_positions_;
  /// Gravity weights for a full axis window: the process-wide table for
  /// this fs, taken with the first block and held for the stage's
  /// lifetime, so a steady block neither looks it up nor filters weights
  /// (dsp/projection.hpp).
  std::shared_ptr<const dsp::GravityWeights> up_weights_;
  Axes axes_{};  ///< the last fit's (zero before a stream's first)
  Vec3 moment_shift_{};  ///< the stream's first raw sample
  Ring<dsp::simd::Moments3> block_moments_;  ///< per grid block, about it
  /// Per grid block k, its weighted sums at each of taper_positions_, at
  /// k * taper_positions_.size() + slot: a full window's per-sample
  /// gravity terms, taken while the block's samples are fresh.
  Ring<Vec3> taper_sums_;
  /// Warm-up: before its axis window is full, a stream's grid fits run over
  /// [0, m B) for m = first_fit_ / B ... W / B - 1 blocks (the ladder).
  /// Its tables (index m - first_fit_ / B) are taken with the first block,
  /// and each block k below W / B - 1 has its weighted sums against every
  /// ladder window that weighs it sample by sample, from
  /// first_warm_window(k) up, at warm_offsets_[k] on. All three are
  /// released with the first full window's fit.
  std::vector<std::shared_ptr<const dsp::GravityWeights>> warm_tables_;
  std::vector<std::size_t> warm_offsets_;
  std::vector<Vec3> warm_sums_;
  std::size_t projected_ = 0;  ///< raw samples projected so far
  GridLowpass lowpass_;
};

/// Finds step peaks over the finalized projected vertical channel
/// (dsp::PeakScan) and pairs them into candidate cycles with the batch
/// pairing loop, resumed across hops. Candidates are emitted exactly once,
/// in order.
class SegmentationStage {
 public:
  SegmentationStage(const StepCounterConfig& cfg, double fs);

  /// Scans newly finalized projected samples; appends newly finalized
  /// candidate cycles to `out` (absolute indices). Flush decides every
  /// peak up to the channel's end.
  void advance(const Ring<double>& vertical, bool flush,
               std::vector<CycleCandidate>& out);

  /// Earliest projected absolute index the next advance will read.
  [[nodiscard]] std::size_t min_required() const;

 private:
  std::size_t max_gap_;  ///< kMaxStepIntervalS (samples)
  dsp::PeakScan peak_scan_;
  std::vector<std::size_t> peaks_;  ///< decided peaks awaiting pairing
  std::size_t pair_index_ = 0;      ///< pairing loop index into peaks_
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
                const StrideConfig& stride_cfg, double fs);
  /// The constructor above, for callers written when the pipeline took a
  /// workspace (e2e_bench/src/probes.cpp): scratch is now the thread's, so
  /// the pointer is not used.
  StagePipeline(const StepCounterConfig& counter_cfg,
                const StrideConfig& stride_cfg, double fs,
                dsp::Workspace* /*unused*/)
      : StagePipeline(counter_cfg, stride_cfg, fs) {}

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

/// The projection of a whole trace: a flush of a fresh ProjectionStage over
/// it (quality layer off), i.e. exactly the channels PTrack::process
/// analyzes with quality.enabled = false. Requires >= 16 samples.
ProjectedChannels project_trace(const imu::Trace& trace,
                                const StepCounterConfig& cfg = {});

}  // namespace ptrack::core
