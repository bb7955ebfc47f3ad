#include "core/stages.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/error.hpp"
#include "dsp/peaks.hpp"
#include "dsp/simd.hpp"
#include "dsp/workspace.hpp"
#include "imu/quality.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::core {

namespace {

[[nodiscard]] std::size_t seconds_to_samples(double s, double fs) {
  return static_cast<std::size_t>(s * fs);
}

}  // namespace

// ---------------------------------------------------------------------------
// ProjectionStage

ProjectionStage::ProjectionStage(const StepCounterConfig& cfg, double fs)
    : fs_(fs),
      block_(grid_block(fs)),
      axis_window_(seconds_to_samples(cfg.anterior_window_s, fs) / block_ *
                   block_),
      taper_(seconds_to_samples(kTaperS, fs)),
      first_fit_(std::min(axis_window_,
                          (seconds_to_samples(kMinAxisWindowS, fs) + block_ -
                           1) / block_ * block_)),
      lowpass_(cfg.lowpass_hz, fs) {
  expects(axis_window_ >= block_,
          "ProjectionStage: anterior_window_s spans at least one grid block");
  // ptrack-lint: push-allow(alloc) setup-time reservations
  // The block positions of a full window whose gravity weights vary, so
  // that fit_axes weighs them sample by sample (the test in its add()).
  for (std::size_t p = 0; p < axis_window_ / block_; ++p) {
    if (tapered(p, axis_window_ / block_)) taper_positions_.push_back(p);
  }
  // The per-block rings hold a window's blocks and the next one, and a
  // dead prefix up to as long before they compact.
  const std::size_t blocks = 2 * (axis_window_ / block_ + 1);
  block_moments_.reserve(blocks);
  taper_sums_.reserve(blocks * taper_positions_.size());
  // ptrack-lint: pop-allow(alloc)
}

void ProjectionStage::advance(const imu::SampleRing& ring, bool flush) {
  PTRACK_OBS_SPAN("ptrack.core.project");
  PTRACK_CHECK_MSG(projected_ <= ring.end(),
                   "ProjectionStage: projected frontier within the ring");
  dsp::Workspace& ws = dsp::thread_workspace();
  const std::size_t settle = grid_settle(block_);
  // Every grid point the raw ring has reached, in order: project the block
  // that ends there, then finalize what a backward pass from it settles.
  for (std::size_t g = (projected_ / block_ + 1) * block_; g <= ring.end();
       g += block_) {
    // The stream's first fit waits for kMinAxisWindowS of samples and
    // projects all of them.
    if (projected_ == 0 && g < first_fit_) continue;
    axes_ = fit_axes(ring, g);
    project_to(ring, g, ws);
    lowpass_.finalize(g > settle ? g - settle : 0, ws);
  }
  if (flush && ring.end() >= 16) {
    if (ring.end() > projected_) {
      // The final partial block keeps the last grid fit's axes, so no fit
      // ever needs a window of raw samples that is not block-aligned; a
      // stream shorter than its first fit is fit over all of it.
      if (projected_ == 0) axes_ = fit_axes(ring, ring.end());
      project_to(ring, ring.end(), ws);
    }
    lowpass_.flush(ws);
  }
  lowpass_.run_passes(ws);
}

void ProjectionStage::project_to(const imu::SampleRing& ring, std::size_t e,
                                 dsp::Workspace& ws) {
  PTRACK_COUNT("ptrack.core.projections");
  const std::size_t b = projected_;
  PTRACK_CHECK_MSG(b < e && e - b <= first_fit_,
                   "ProjectionStage: one first fit or block at a time");
  // Specific force f = a_lin - g_vec with g_vec = -g*up, so the linear
  // vertical acceleration is f.up - g.
  lowpass_.append(
      e - b,
      [&](std::span<double> vertical, std::span<double> anterior) {
        dsp::simd::axis_project(ring.ax(b, e), ring.ay(b, e), ring.az(b, e),
                                axes_.up, kGravity, vertical);
        dsp::simd::residual_project(ring.ax(b, e), ring.ay(b, e),
                                    ring.az(b, e), axes_.up, axes_.anterior,
                                    anterior);
      },
      ws);
  projected_ = e;
}

void ProjectionStage::take_blocks(const imu::SampleRing& ring,
                                  std::size_t e) {
  PTRACK_CHECK_MSG(ring.base() <= block_moments_.end() * block_,
                   "ProjectionStage: blocks not yet taken are retained raw");
  const std::size_t blocks = axis_window_ / block_;
  const std::size_t ladder = first_fit_ / block_;
  if (!up_weights_) {
    up_weights_ =
        dsp::shared_gravity_weights(axis_window_, fs_, dsp::kGravityCutoffHz);
    moment_shift_ = {ring.ax(0, 1)[0], ring.ay(0, 1)[0], ring.az(0, 1)[0]};
    // The warm-up ladder's tables and room for every block's sums against
    // them: held through the warm-up only (fit_axes releases them).
    std::size_t sums = 0;
    for (std::size_t k = 0; k + 1 < blocks; ++k) {
      for (std::size_t m = first_warm_window(k); m < blocks && tapered(k, m);
           ++m) {
        ++sums;
      }
    }
    // ptrack-lint: push-allow(alloc) warm-up state, released when full
    for (std::size_t m = ladder; m < blocks; ++m) {
      warm_tables_.push_back(dsp::shared_gravity_weights(
          m * block_, fs_, dsp::kGravityCutoffHz));
    }
    warm_offsets_.reserve(blocks);
    warm_sums_.reserve(sums);
    // ptrack-lint: pop-allow(alloc)
  }
  const std::span<const double> w = up_weights_->weights();
  while ((block_moments_.end() + 1) * block_ <= e) {
    const std::size_t k = block_moments_.end();
    const std::size_t pb = k * block_;
    const std::size_t pe = pb + block_;
    const std::span<const double> x = ring.ax(pb, pe);
    const std::span<const double> y = ring.ay(pb, pe);
    const std::span<const double> z = ring.az(pb, pe);
    // ptrack-lint: push-allow(alloc) per-block entries; steady capacity
    block_moments_.push(dsp::simd::moments3(x, y, z, moment_shift_));
    for (const std::size_t p : taper_positions_) {
      taper_sums_.push(
          dsp::simd::weighted_sum3(w.subspan(p * block_, block_), x, y, z));
    }
    if (k + 1 < blocks && !warm_tables_.empty()) {
      // Within the warm-up reservations above.
      warm_offsets_.push_back(warm_sums_.size());
      for (std::size_t m = first_warm_window(k); m < blocks && tapered(k, m);
           ++m) {
        warm_sums_.push_back(dsp::simd::weighted_sum3(
            warm_tables_[m - ladder]->weights().subspan(pb, block_), x, y,
            z));
      }
    }
    // ptrack-lint: pop-allow(alloc)
  }
}

ProjectionStage::Axes ProjectionStage::fit_axes(const imu::SampleRing& ring,
                                                std::size_t e) {
  const std::size_t begin = e > axis_window_ ? e - axis_window_ : 0;
  const std::size_t n = e - begin;
  const bool full = n == axis_window_;
  // A warm-up window on the ladder: whole blocks from the stream's start.
  const bool warm = !full && n >= first_fit_;
  PTRACK_CHECK_MSG(n >= 16 && (full || warm ? begin % block_ == 0 &&
                                                  n % block_ == 0
                                            : begin == 0 && ring.base() == 0),
                   "ProjectionStage: full and warm-up windows are whole "
                   "blocks; a shorter one reads the stream from its start");
  take_blocks(ring, e);
  // The gravity weights depend only on the window length: full and warm-up
  // windows take the tables this stage holds; a shorter one (a flush of a
  // stream before its first fit) comes from the shared registry.
  const std::size_t ladder = first_fit_ / block_;
  const std::shared_ptr<const dsp::GravityWeights> table =
      full   ? up_weights_
      : warm ? warm_tables_[n / block_ - ladder]
             : dsp::shared_gravity_weights(n, fs_, dsp::kGravityCutoffHz);

  // The window is cut at grid points into pieces: whole blocks, and a
  // partial one at the end of a stream shorter than its first fit. The
  // principal direction reads their summed moments. The gravity estimate
  // weighs each sample with the gravity weights where the taper varies,
  // within kTaperS of either end; a whole block inside that is weighed by
  // its mean weight, from its moments. In full and warm-up windows the
  // per-sample sums were taken with the blocks (take_blocks), so they read
  // no raw sample; only a window shorter than the first fit does.
  const std::size_t first = begin / block_;
  const std::size_t last = e / block_;
  const std::span<const double> w = table->weights();
  const std::span<const double> cumulative = table->cumulative();
  const std::size_t slots = taper_positions_.size();
  std::size_t slot = 0;  // taper position of a full window's next block
  dsp::simd::Moments3 total{};
  Vec3 gravity{};
  const auto add = [&](std::size_t pb, std::size_t pe,
                       const dsp::simd::Moments3& m) {
    total.sum += m.sum;
    total.xx += m.xx;
    total.xy += m.xy;
    total.xz += m.xz;
    total.yy += m.yy;
    total.yz += m.yz;
    total.zz += m.zz;
    const std::size_t jb = pb - begin;
    const std::size_t je = pe - begin;
    if (pe - pb == block_ && jb >= taper_ && je + taper_ <= n) {
      const double c = cumulative[je] - cumulative[jb];
      gravity += (m.sum + moment_shift_ * static_cast<double>(block_)) *
                 (c / static_cast<double>(block_));
    } else if (full) {
      PTRACK_CHECK_MSG(slot < slots && taper_positions_[slot] == jb / block_,
                       "ProjectionStage: full-window blocks in taper order");
      gravity += taper_sums_[pb / block_ * slots + slot];
      ++slot;
    } else if (warm) {
      const std::size_t k = pb / block_;
      const std::size_t i =
          warm_offsets_[k] + n / block_ - first_warm_window(k);
      PTRACK_CHECK_MSG(i < (k + 1 < warm_offsets_.size()
                                ? warm_offsets_[k + 1]
                                : warm_sums_.size()),
                       "ProjectionStage: warm-up sums stored for the block");
      gravity += warm_sums_[i];
    } else {
      gravity += dsp::simd::weighted_sum3(w.subspan(jb, je - jb),
                                          ring.ax(pb, pe), ring.ay(pb, pe),
                                          ring.az(pb, pe));
    }
  };
  for (std::size_t k = first; k < last; ++k) {
    add(k * block_, (k + 1) * block_, block_moments_[k]);
  }
  if (const std::size_t pb = last * block_; pb < e) {
    add(pb, e, dsp::simd::moments3(ring.ax(pb, e), ring.ay(pb, e),
                                   ring.az(pb, e), moment_shift_));
  }
  // The next window starts after this one; once a window is full, no
  // warm-up window is left to fit.
  block_moments_.trim_to(first);
  taper_sums_.trim_to(first * slots);
  if (full && !warm_tables_.empty()) {
    // Move-assigned, not `= {}`: assigning an empty list keeps the capacity.
    warm_tables_ = decltype(warm_tables_)();
    warm_offsets_ = decltype(warm_offsets_)();
    warm_sums_ = decltype(warm_sums_)();
  }

  check(gravity.norm() > 1e-6,
        "ProjectionStage: gravity magnitude not degenerate");
  Axes axes{gravity.normalized(), {}};
  // PCA is sign-ambiguous: align with the previous fit so the anterior
  // channel does not flip mid-stream.
  axes.anterior = dsp::principal_horizontal_direction(total, n, axes.up);
  if (axes_.anterior.norm2() > 0.0 &&
      axes.anterior.dot(axes_.anterior) < 0.0) {
    axes.anterior = -axes.anterior;
  }
  return axes;
}

std::size_t ProjectionStage::min_required() const {
  // The next grid fit ends at the grid point after projected_. A window
  // shorter than the first fit (a stream's first fit, or a flush before
  // it) reads the stream's raw samples from its start; warm-up and full
  // windows read the stored block sums, so only the blocks not yet taken
  // stay raw: from projected_'s block on.
  const std::size_t block = projected_ / block_ * block_;
  return block + block_ >= first_fit_ ? block : 0;
}

// ---------------------------------------------------------------------------
// SegmentationStage

SegmentationStage::SegmentationStage(const StepCounterConfig& cfg, double fs)
    : max_gap_(seconds_to_samples(kMaxStepIntervalS, fs)),
      peak_scan_(std::max<std::size_t>(
                     1, seconds_to_samples(cfg.min_step_interval_s, fs)),
                 kMinCycleProminence,
                 std::max<std::size_t>(1, seconds_to_samples(kPeakWindowS, fs)),
                 kSuppressionDepth) {
  expects(fs > 0.0, "SegmentationStage: fs > 0");
  // The consumed-prefix erase below keeps the pending peak list at most
  // ~64 entries plus one hop's worth of fresh peaks; 256 clears that bound
  // with headroom so steady-state hops never reallocate (DESIGN.md §15) —
  // without it the list oscillates right at a power-of-two capacity edge.
  // ptrack-lint: push-allow(alloc) setup-time reservations
  peaks_.reserve(256);
  // A peak stays cached for about two prominence windows: ~16 raw maxima
  // of a walking channel; 32 leaves headroom for noisier ones.
  peak_scan_.reserve(32);
  // ptrack-lint: pop-allow(alloc)
}

void SegmentationStage::advance(const Ring<double>& vertical, bool flush,
                                std::vector<CycleCandidate>& out) {
  PTRACK_OBS_SPAN("ptrack.core.segment");
  PTRACK_CHECK_MSG(vertical.base() <= min_required(),
                   "SegmentationStage: ring retains what the scan reads");
  peak_scan_.scan(vertical.span(vertical.base(), vertical.end()),
                  vertical.base(), flush, peaks_);

  // The batch pairing loop with a persistent index: it resumes exactly
  // where it stopped when new peaks arrive, so the emitted candidate
  // sequence equals one run over the full peak list.
  while (pair_index_ + 2 < peaks_.size()) {
    const std::size_t p0 = peaks_[pair_index_];
    const std::size_t p1 = peaks_[pair_index_ + 1];
    const std::size_t p2 = peaks_[pair_index_ + 2];
    if (p1 - p0 <= max_gap_ && p2 - p1 <= max_gap_) {
      // ptrack-lint: allow(alloc) caller-owned hop buffer, steady capacity
      out.push_back({p0, p1, p2});
      pair_index_ += 2;  // non-overlapping cycles
    } else {
      ++pair_index_;  // skip the stale peak and retry
    }
  }
  // Retire the unpaired tail early where the loop is bound to skip it:
  // later peaks land at or after pending_from(), so a tail whose newest
  // peak is more than max_gap before it can never complete a cycle, and a
  // leading gap above max_gap fails whatever the third peak is. The tail
  // is retained (min_required) until it pairs or retires, so this keeps
  // that retention bounded.
  if (pair_index_ + 1 < peaks_.size() &&
      peaks_[pair_index_ + 1] - peaks_[pair_index_] > max_gap_) {
    ++pair_index_;
  }
  if (pair_index_ < peaks_.size() &&
      peaks_.back() + max_gap_ < peak_scan_.pending_from()) {
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
  // A cycle reads the channel from its first peak: an unpaired one, or
  // one not yet decided.
  const std::size_t floor =
      std::min(peak_scan_.min_required(), peak_scan_.pending_from());
  return pair_index_ < peaks_.size() ? std::min(floor, peaks_[pair_index_])
                                     : floor;
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
                             const StrideConfig& stride_cfg, double fs)
    : projection_(counter_cfg, fs),
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

ProjectedChannels project_trace(const imu::Trace& trace,
                                const StepCounterConfig& cfg) {
  expects(trace.size() >= 16, "project_trace: >= 16 samples");
  imu::SampleRing ring;
  for (const imu::Sample& s : trace.samples()) ring.push(s, 0);
  ProjectionStage stage(cfg, trace.fs());
  stage.advance(ring, /*flush=*/true);
  const std::size_t n = stage.frontier();
  ProjectedChannels out;
  out.fs = trace.fs();
  const std::span<const double> v = stage.vertical().span(0, n);
  const std::span<const double> a = stage.anterior().span(0, n);
  // ptrack-lint: push-allow(alloc) batch-only result vectors
  out.vertical.assign(v.begin(), v.end());
  out.anterior.assign(a.begin(), a.end());
  // ptrack-lint: pop-allow(alloc)
  return out;
}

}  // namespace ptrack::core
