#include "core/stages.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/error.hpp"
#include "dsp/peaks.hpp"
#include "imu/quality.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::core {

namespace {

[[nodiscard]] std::size_t seconds_to_samples(double s, double fs) {
  return static_cast<std::size_t>(s * fs);
}

/// Raw accel channels [b, e) of the ring.
AxisHistory accel_spans(const imu::SampleRing& ring, std::size_t b,
                        std::size_t e) {
  return {ring.ax(b, e), ring.ay(b, e), ring.az(b, e)};
}

}  // namespace

// ---------------------------------------------------------------------------
// ProjectionStage

ProjectionStage::ProjectionStage(const StepCounterConfig& cfg, double fs,
                                 dsp::Workspace* ws)
    : cfg_(cfg),
      fs_(fs),
      ws_(ws),
      ctx_(seconds_to_samples(kProjectionCtxS, fs)),
      margin_(seconds_to_samples(kProjectionMarginS, fs)),
      axis_window_(seconds_to_samples(kProjectionAxisWindowS, fs)),
      carry_(cfg.lowpass_hz, fs) {
  expects(fs > 0.0, "ProjectionStage: fs > 0");
  expects(ws != nullptr, "ProjectionStage: requires a workspace");
}

void ProjectionStage::advance(const imu::SampleRing& ring, bool flush) {
  PTRACK_CHECK_MSG(vert_.end() <= ring.end(),
                   "ProjectionStage: projected frontier within the ring");
  const std::size_t end = ring.end();
  const std::size_t stable = vert_.end();
  const std::size_t target = flush ? end : (end > margin_ ? end - margin_ : 0);
  if (target > stable) {
    // The axes are fit over a trailing context region [begin, end), as a
    // re-projection of it would be. With a carried low-pass state only the
    // new samples [stable, end) are projected and filtered; without one
    // (stream start, batch, after a re-seed) the whole region is, with the
    // zero-phase filter's usual reflected left pad. Either way only
    // [stable, target) is kept.
    std::size_t begin = stable > ctx_ ? stable - ctx_ : 0;
    begin = std::max(begin, ring.base());
    if (end - begin >= 16) {
      // Pin the projection axes to a longer trailing history than the
      // re-projected span whenever one is retained (incremental hops); in
      // a batch flush begin == ring.base() and the history degenerates to
      // the projected span itself, i.e. exactly the batch axis estimate.
      // Windowed anterior mode re-fits the direction per window by design,
      // so it keeps the span-local fit.
      std::size_t axis_begin = end > axis_window_ ? end - axis_window_ : 0;
      axis_begin = std::max(axis_begin, ring.base());
      const bool pin_axes =
          cfg_.anterior_window_s <= 0.0 && axis_begin < begin;
      // A flush with a tail shorter than the filter's pad would clamp the
      // right pad below a re-projection's, so it re-projects instead.
      const bool carried =
          carry_.valid_at(stable) && end - stable > kLowpassPad;
      const Region region{begin,  end,    axis_begin, pin_axes,
                          stable, target, carried,    flush};
      project_region(ring, region);
      advance_carry(ring, region, flush);
    }
  }
}

void ProjectionStage::project_region(const imu::SampleRing& ring,
                                     const Region& r) {
  PTRACK_CHECK_MSG(r.begin <= r.stable && r.stable < r.target &&
                       r.target <= r.end,
                   "ProjectionStage: finalized range inside the region");
  const AxisHistory raw = accel_spans(ring, r.begin, r.end);
  AxisHistory axes =
      r.pin_axes ? accel_spans(ring, r.axis_begin, r.end) : AxisHistory{};
  // Every pinned history length takes its gravity weights from the shared
  // registry: the steady 20 s window from the table this stage holds,
  // warm-up lengths from a table held for this call only. So does a
  // stream-start hop, whose axes are fit over the region itself: its
  // lengths repeat across streams like the pinned warm-up ladder's. A
  // flush (a whole batch trace, of a length no other call repeats) and the
  // windowed anterior mode compute them into workspace scratch.
  std::shared_ptr<const dsp::GravityWeights> warmup_weights;
  if (r.pin_axes) {
    const std::size_t len = r.end - r.axis_begin;
    if (len == axis_window_) {
      if (!up_weights_) {
        up_weights_ = dsp::shared_gravity_weights(axis_window_, fs_,
                                                  dsp::kGravityCutoffHz);
      }
      axes.up_weights = up_weights_->weights();
    } else {
      warmup_weights =
          dsp::shared_gravity_weights(len, fs_, dsp::kGravityCutoffHz);
      axes.up_weights = warmup_weights->weights();
    }
  } else if (!r.flush && cfg_.anterior_window_s <= 0.0) {
    warmup_weights = dsp::shared_gravity_weights(r.end - r.begin, fs_,
                                                 dsp::kGravityCutoffHz);
    axes.up_weights = warmup_weights->weights();
  }
  project_channels_into(raw.ax, raw.ay, raw.az, fs_, cfg_.lowpass_hz,
                        cfg_.anterior_window_s, *ws_, &seam_, axes, proj_,
                        r.carried ? carry_.carry(r.stable - r.begin)
                                  : FilterCarry{});
  // proj_ holds samples [stable, end) with a carried state, else
  // [begin, end).
  const std::size_t first = r.carried ? r.stable : r.begin;
  for (std::size_t i = r.stable; i < r.target; ++i) {
    vert_.push(proj_.vertical[i - first]);
    ant_.push(proj_.anterior[i - first]);
  }
}

void ProjectionStage::advance_carry(const imu::SampleRing& ring,
                                    const Region& r, bool flush) {
  PTRACK_CHECK_MSG(r.begin <= r.stable && r.stable < r.target &&
                       r.target <= r.end,
                   "ProjectionStage: carried range inside the region");
  if (carry_.valid_at(r.stable)) {
    carry_.advance(ring.ax(r.stable, r.target), ring.ay(r.stable, r.target),
                   ring.az(r.stable, r.target), *ws_);
  } else if (!flush) {
    // Re-seed with the zero-state warm-up this hop's re-projection ran. A
    // flush does not seed: a batch run ends there, and a stream that goes
    // on re-seeds on its next hop.
    carry_.seed(ring.ax(r.begin, r.end), ring.ay(r.begin, r.end),
                ring.az(r.begin, r.end), r.target - r.begin, r.target,
                *ws_);
  }
}

std::size_t ProjectionStage::min_required() const {
  // Keep both the re-projection context and the axis-estimation history
  // behind the finalized frontier (axis_window_ > ctx_, but spell out both
  // retention reasons).
  const std::size_t stable = vert_.end();
  const std::size_t ctx_floor = stable > ctx_ ? stable - ctx_ : 0;
  const std::size_t axis_floor = stable > axis_window_ ? stable - axis_window_ : 0;
  return std::min(ctx_floor, axis_floor);
}

void ProjectionStage::trim_projected(std::size_t new_base) {
  vert_.trim_to(new_base);
  ant_.trim_to(new_base);
}

// ---------------------------------------------------------------------------
// SegmentationStage

SegmentationStage::SegmentationStage(const StepCounterConfig& cfg, double fs)
    : cfg_(cfg),
      fs_(fs),
      lookback_(seconds_to_samples(kSegmentationLookbackS, fs)),
      margin_(seconds_to_samples(kSegmentationMarginS, fs)) {
  expects(fs > 0.0, "SegmentationStage: fs > 0");
  // The finalization margin must cover the min-distance suppression window:
  // once a peak is final, no later (taller) peak may appear within
  // min_distance of it, or the greedy suppression would have picked
  // differently than batch.
  PTRACK_CHECK_MSG(
      margin_ >= static_cast<std::size_t>(cfg.min_step_interval_s * fs),
      "SegmentationStage: margin covers the min-distance window");
  // The consumed-prefix erase below keeps the pending peak list at most
  // ~64 entries plus one hop's worth of fresh peaks; 256 clears that bound
  // with headroom so steady-state hops never reallocate (DESIGN.md §15) —
  // without it the list oscillates right at a power-of-two capacity edge.
  peaks_.reserve(256);
  // A steady window holds ~16 raw maxima of a walking channel; 32 leaves
  // headroom for noisier ones.
  peak_scan_.reserve(32);
}

void SegmentationStage::advance(const Ring<double>& vertical, bool flush,
                                std::vector<CycleCandidate>& out) {
  PTRACK_OBS_SPAN("ptrack.core.segment");
  PTRACK_CHECK_MSG(scan_floor_ == 0 || vertical.base() <= scan_floor_,
                   "SegmentationStage: ring retains the unscanned region");
  const std::size_t end = vertical.end();
  const std::size_t accept_to =
      flush ? end : (end > margin_ ? end - margin_ : 0);

  std::size_t scan_begin = std::max(vertical.base(), scan_floor_);
  if (end > scan_begin && end - scan_begin >= 3) {
    dsp::PeakOptions opt;
    opt.min_distance = std::max<std::size_t>(
        1, static_cast<std::size_t>(cfg_.min_step_interval_s * fs_));
    opt.min_prominence = cfg_.min_cycle_prominence;
    peak_scan_.scan(vertical.span(scan_begin, end), scan_begin, opt,
                    scan_scratch_);
    for (const std::size_t r : scan_scratch_) {
      const std::size_t p = scan_begin + r;
      // Peaks at or before the last finalized one were decided in an
      // earlier scan over identical data (projection output is final);
      // peaks inside the margin wait for more right context.
      if (have_last_final_ && p <= last_final_peak_) continue;
      if (p >= accept_to) break;
      // ptrack-lint: allow(alloc) bounded by the ctor's reserve(256)
      peaks_.push_back(p);
      last_final_peak_ = p;
      have_last_final_ = true;
    }
  }
  // Advance the retention floor: future peaks land at >= accept_to, and
  // their prominence walks and suppression interactions reach back at most
  // `lookback_` samples.
  scan_floor_ = std::max(
      scan_floor_, accept_to > lookback_ ? accept_to - lookback_ : 0);

  // The batch pairing loop (segment_cycles) with a persistent index: it
  // resumes exactly where it stopped when new peaks arrive, so the emitted
  // candidate sequence equals one batch run over the full peak list.
  const auto max_gap =
      static_cast<std::size_t>(cfg_.max_step_interval_s * fs_);
  while (pair_index_ + 2 < peaks_.size()) {
    const std::size_t p0 = peaks_[pair_index_];
    const std::size_t p1 = peaks_[pair_index_ + 1];
    const std::size_t p2 = peaks_[pair_index_ + 2];
    const bool gaps_ok = (p1 - p0) <= max_gap && (p2 - p1) <= max_gap;
    if (gaps_ok) {
      // ptrack-lint: allow(alloc) caller-owned hop buffer, steady capacity
      out.push_back({p0, p1, p2});
      pair_index_ += 2;  // non-overlapping cycles
    } else {
      ++pair_index_;  // skip the stale peak and retry
    }
  }
  // Retire the unpaired tail early where the batch loop is bound to skip
  // it: future peaks land at >= scan_floor_, so a tail whose newest peak
  // is more than max_gap before it can never complete a cycle, and a
  // leading gap above max_gap fails whatever the third peak is. The tail
  // is retained (min_required) until it pairs or retires, so this keeps
  // that retention bounded.
  if (pair_index_ + 1 < peaks_.size() &&
      peaks_[pair_index_ + 1] - peaks_[pair_index_] > max_gap) {
    ++pair_index_;
  }
  if (pair_index_ < peaks_.size() && peaks_.back() + max_gap < scan_floor_) {
    pair_index_ = peaks_.size();
  }
  // Drop the consumed peak prefix (indices only; amortized O(1)).
  if (pair_index_ > 64) {
    peaks_.erase(peaks_.begin(),
                 peaks_.begin() + static_cast<std::ptrdiff_t>(pair_index_));
    pair_index_ = 0;
  }
}

std::size_t SegmentationStage::min_required() const {
  // Unpaired peaks were accepted from samples the scan floor may already
  // have passed (a peak whose prominence clears only after more than the
  // margin of right context lands below an earlier accept_to); the cycle
  // they may still open reads the channel from the oldest of them.
  return pair_index_ < peaks_.size()
             ? std::min(scan_floor_, peaks_[pair_index_])
             : scan_floor_;
}

// ---------------------------------------------------------------------------
// EventAssembler

EventAssembler::EventAssembler(const StepCounterConfig& counter_cfg,
                               const StrideConfig& stride_cfg, double fs)
    : ccfg_(counter_cfg),
      scfg_(stride_cfg),
      fs_(fs),
      identifier_(counter_cfg),
      estimator_(stride_cfg) {
  expects(fs > 0.0, "EventAssembler: fs > 0");
  // Mirror dsp::moving_median's window normalization (even -> next odd).
  eff_window_ = scfg_.smooth_window;
  if (eff_window_ > 1 && eff_window_ % 2 == 0) ++eff_window_;
  half_ = eff_window_ / 2;
  // Setup-time reservations: both buffers have config-bounded occupancy,
  // so sizing them here keeps the steady-state hop allocation-free.
  withheld_.reserve(static_cast<std::size_t>(ccfg_.streak));
  median_scratch_.reserve(eff_window_);
}

void EventAssembler::set_profile(const StrideProfile& profile) {
  scfg_.profile = profile;
  estimator_.set_profile(profile);
}

void EventAssembler::advance(std::span<const CycleCandidate> fresh,
                             const Ring<double>& vertical,
                             const Ring<double>& anterior,
                             const imu::SampleRing& raw, bool flush,
                             StageStats* stats) {
  PTRACK_OBS_SPAN("ptrack.core.count");
  for (const CycleCandidate& c : fresh) {
    obs::StageTimer timer;
    // A gap between candidates breaks any stepping streak; cycles withheld
    // in the open streak stay Interference (batch: identifier.reset()).
    if (have_prev_ && c.begin != prev_end_) {
      resolve_withheld_interference();
      identifier_.reset();
    }
    prev_end_ = c.end;
    have_prev_ = true;

    const std::size_t n = c.end - c.begin;
    if (n < 8) continue;

    const CycleAnalysis analysis = analyze_cycle(
        vertical.span(c.begin, c.end), anterior.span(c.begin, c.end), ccfg_);
    const GaitIdentifier::Decision decision = identifier_.classify(analysis);

    CycleRecord record;
    record.begin = c.begin;
    record.mid = c.mid;
    record.end = c.end;
    record.type = decision.type;
    record.offset = analysis.offset;
    record.half_cycle_corr = analysis.half_cycle_corr;
    record.phase_ok = analysis.phase_ok;
    record.quality = 1.0 - raw.fraction_flagged(c.begin, c.end, 0xFF);
    if (stats) stats->count_us += timer.lap_us();

    if (decision.type == GaitType::Interference) {
      if (decision.withheld) {
        // Provisional: a later streak completion may retro-confirm it.
        // ptrack-lint: allow(alloc) bounded by the ctor's reserve(streak)
        withheld_.push_back(record);
      } else {
        // Streak broken: earlier withheld cycles are Interference for good.
        resolve_withheld_interference();
        // ptrack-lint: allow(alloc) steady capacity via per-hop drain
        cycles_out_.push_back(record);
      }
      continue;
    }

    if (decision.type == GaitType::Walking) {
      resolve_withheld_interference();
    } else if (decision.confirmed_backlog > 0) {
      // Streak completed: the withheld cycles are confirmed as Stepping, in
      // order, before the completing cycle (batch retro-confirmation).
      PTRACK_CHECK_MSG(decision.confirmed_backlog == withheld_.size(),
                       "EventAssembler: backlog matches withheld cycles");
      for (CycleRecord& w : withheld_) {
        w.type = GaitType::Stepping;
        confirm(w, vertical, anterior, raw);
      }
      withheld_.clear();
    } else {
      PTRACK_CHECK_MSG(withheld_.empty(),
                       "EventAssembler: active streak holds no withheld cycles");
    }
    confirm(record, vertical, anterior, raw);
    if (stats) stats->stride_us += timer.lap_us();
  }

  if (flush) {
    // Stream end: an open streak can no longer complete. Reset the
    // identifier so a continued stream starts a fresh streak (matching the
    // cleared withheld list).
    resolve_withheld_interference();
    identifier_.reset();
  }
  obs::StageTimer timer;
  finalize_events(flush);
  if (stats) stats->stride_us += timer.lap_us();
}

void EventAssembler::resolve_withheld_interference() {
  // ptrack-lint: allow(alloc) steady capacity via per-hop drain
  for (const CycleRecord& w : withheld_) cycles_out_.push_back(w);
  withheld_.clear();
}

void EventAssembler::confirm(CycleRecord record, const Ring<double>& vertical,
                             const Ring<double>& anterior,
                             const imu::SampleRing& raw) {
  PTRACK_CHECK_MSG(record.begin < record.mid && record.mid < record.end &&
                       record.end <= vertical.end(),
                   "EventAssembler::confirm: ordered cycle bounds");
  // Confirmed-cycle log: steady capacity after the per-hop drain.
  // ptrack-lint: allow(alloc) steady capacity via per-hop discard_cycles
  cycles_out_.push_back(record);

  // Stride estimation reads only the cycle's own span, so estimating at
  // confirmation time (batch: a later lockstep pass) yields identical
  // values.
  CycleRecord local = record;
  local.begin = 0;
  local.mid = record.mid - record.begin;
  local.end = record.end - record.begin;
  const ChannelSpans spans{vertical.span(record.begin, record.end),
                           anterior.span(record.begin, record.end), fs_};
  const SweepEstimateSet estimate_set =
      estimator_.estimate_cycle_set(spans, local);
  const std::span<const SweepEstimate> estimates = estimate_set.span();
  PTRACK_COUNT_N("ptrack.core.stride.estimates", estimates.size());

  const std::size_t bounds[3] = {record.begin, record.mid, record.end};
  for (std::size_t j = 0; j < 2; ++j) {
    StepEvent ev;
    ev.t = static_cast<double>(bounds[j + 1]) / fs_;
    ev.type = record.type;
    ev.quality = 1.0 - raw.fraction_flagged(bounds[j], bounds[j + 1], 0xFF);
    ev.degraded =
        raw.fraction_flagged(bounds[j], bounds[j + 1], imu::kFlagMasked) > 0.5;

    double stride = 0.0;
    if (j < estimates.size() && estimates[j].valid) {
      stride = estimates[j].stride;
    } else if (j < estimates.size()) {
      PTRACK_COUNT("ptrack.core.stride.invalid");
    }

    // The batch fill pass, applied causally in event order: carry the most
    // recent positive stride forward; backfill the leading zeros once the
    // first positive stride appears.
    double fill = 0.0;
    if (stride > 0.0) {
      fill = stride;
      last_positive_ = stride;
      if (!seen_positive_) {
        seen_positive_ = true;
        for (std::size_t k = fills_.base(); k < fills_.end(); ++k) {
          fills_.at(k) = stride;
        }
      }
    } else if (seen_positive_) {
      fill = last_positive_;
    }
    ev.stride = fill;
    pending_events_.push(ev);
    fills_.push(fill);
    ++events_created_;
  }
}

double EventAssembler::smoothed_stride(std::size_t i,
                                       std::size_t n_total) const {
  // Exactly dsp::moving_median's per-index computation over the filled
  // stride sequence (window clipped to [0, n_total - 1]; even-sized edge
  // windows average the two middle order statistics).
  const std::size_t lo = i >= half_ ? i - half_ : 0;
  const std::size_t hi = std::min(i + half_, n_total - 1);
  median_scratch_.clear();
  // ptrack-lint: allow(alloc) bounded by the ctor's reserve(eff_window_)
  for (std::size_t k = lo; k <= hi; ++k) median_scratch_.push_back(fills_[k]);
  const auto mid = median_scratch_.begin() +
                   static_cast<std::ptrdiff_t>(median_scratch_.size() / 2);
  std::nth_element(median_scratch_.begin(), mid, median_scratch_.end());
  if (median_scratch_.size() % 2 == 1) return *mid;
  const double hi_mid = *mid;
  const double lo_mid = *std::max_element(median_scratch_.begin(), mid);
  return 0.5 * (lo_mid + hi_mid);
}

void EventAssembler::finalize_events(bool flush) {
  PTRACK_OBS_SPAN("ptrack.core.stride");
  PTRACK_CHECK_MSG(events_final_ <= events_created_,
                   "EventAssembler: finalized frontier within created events");
  const std::size_t n = events_created_;
  while (events_final_ < n) {
    const std::size_t i = events_final_;
    double value = 0.0;
    if (eff_window_ <= 1) {
      // No smoothing: final once the fill can no longer change (any filled
      // value is positive after the first positive stride; before that, a
      // future backfill could still rewrite it).
      if (!flush && !seen_positive_) break;
      value = fills_[i];
    } else if (!flush) {
      if (!seen_positive_) break;
      // Event i's median window is [i - half, i + half]; once those fills
      // exist (and the batch n >= 3 smoothing gate is already met), the
      // value equals the batch median for any longer stream.
      if (n < std::max<std::size_t>(3, i + half_ + 1)) break;
      value = smoothed_stride(i, n);
    } else {
      // Flush: right-clipped windows, exactly like the batch tail. Batch
      // skips smoothing entirely below 3 events.
      value = n >= 3 ? smoothed_stride(i, n) : fills_[i];
    }
    StepEvent ev = pending_events_[i];
    ev.stride = value;
    // ptrack-lint: allow(alloc) steady capacity via per-hop drain_events
    events_out_.push_back(ev);
    ++events_final_;
    pending_events_.trim_to(events_final_);
    fills_.trim_to(events_final_ > half_ ? events_final_ - half_ : 0);
  }
}

std::vector<StepEvent> EventAssembler::take_events() {
  return std::exchange(events_out_, {});
}

std::vector<CycleRecord> EventAssembler::take_cycles() {
  return std::exchange(cycles_out_, {});
}

void EventAssembler::drain_events(std::vector<StepEvent>& out) {
  // ptrack-lint: allow(alloc) append into the caller's reserved sink
  out.insert(out.end(), events_out_.begin(), events_out_.end());
  events_out_.clear();
}

std::size_t EventAssembler::min_required() const {
  return withheld_.empty() ? std::numeric_limits<std::size_t>::max()
                           : withheld_.front().begin;
}

// ---------------------------------------------------------------------------
// StagePipeline

StagePipeline::StagePipeline(const StepCounterConfig& counter_cfg,
                             const StrideConfig& stride_cfg, double fs,
                             dsp::Workspace* ws)
    : projection_(counter_cfg, fs, ws),
      segmentation_(counter_cfg, fs),
      assembler_(counter_cfg, stride_cfg, fs) {}

void StagePipeline::set_profile(const StrideProfile& profile) {
  assembler_.set_profile(profile);
}

void StagePipeline::advance(const imu::SampleRing& ring, bool flush) {
  PTRACK_CHECK_MSG(ring.base() <= min_required_index(),
                   "StagePipeline: ring retains every stage's context");
  ++stats_.advances;
  obs::StageTimer timer;
  projection_.advance(ring, flush);
  stats_.project_us += timer.lap_us();

  fresh_.clear();
  segmentation_.advance(projection_.vertical(), flush, fresh_);
  PTRACK_COUNT_N("ptrack.core.cycles", fresh_.size());
  stats_.count_us += timer.lap_us();

  assembler_.advance(fresh_, projection_.vertical(), projection_.anterior(),
                     ring, flush, &stats_);

  // Trim the projected rings to what downstream stages still need.
  const std::size_t needed = std::min(
      {segmentation_.min_required(), assembler_.min_required(),
       projection_.frontier()});
  projection_.trim_projected(needed);
}

std::size_t StagePipeline::min_required_index() const {
  return std::min({projection_.min_required(), segmentation_.min_required(),
                   assembler_.min_required()});
}

}  // namespace ptrack::core
