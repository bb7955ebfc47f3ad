#include "core/streaming.hpp"

#include <algorithm>
#include <cmath>

#include "common/alloc_hooks.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::core {

namespace {

// Validated before any member that consumes fs is constructed (the stage
// pipeline is built in the member-init list).
double validated_fs(double fs, const StreamingConfig& config) {
  expects(fs > 0.0, "StreamingTracker: fs > 0");
  expects(config.hop_s > 0.0, "StreamingTracker: hop_s > 0");
  return fs;
}

}  // namespace

// ptrack-lint: allow(entry-check) fs validated by validated_fs() below
StreamingTracker::StreamingTracker(double fs, StreamingConfig config)
    : fs_(validated_fs(fs, config)),
      config_(config),
      pipe_(config.pipeline.counter, config.pipeline.stride, fs),
      hop_samples_(std::max<std::size_t>(
          1, static_cast<std::size_t>(config.hop_s * fs))) {
  if (config_.pipeline.quality.enabled) {
    quality_.emplace(fs_, config_.pipeline.quality);
  }
}

void StreamingTracker::push(const imu::Sample& sample) {
  PTRACK_CHECK_MSG(samples_since_hop_ < hop_samples_,
                   "StreamingTracker::push: hop cadence invariant");
  imu::Sample s = sample;
  s.t = next_t_;
  next_t_ += 1.0 / fs_;
  ++samples_pushed_;

  // Route through the online quality stage (which holds a bounded tail
  // back until each sample's fate is decided) into the ring.
  if (quality_) {
    quality_->push(s, ring_);
  } else {
    ring_.push(s, 0);
  }

  if (++samples_since_hop_ >= hop_samples_) {
    samples_since_hop_ = 0;
    run_hop(/*flush=*/false);
  }
}

void StreamingTracker::push(const imu::Trace& trace) {
  expects(std::abs(trace.fs() - fs_) <= 1e-9 * fs_,
          "StreamingTracker::push: trace sample rate matches the tracker "
          "(resample first)");
  for (const imu::Sample& s : trace.samples()) push(s);
}

void StreamingTracker::run_hop(bool flush) {
  PTRACK_CHECK_MSG(ring_.base() <= pipe_.min_required_index(),
                   "StreamingTracker::run_hop: pipeline context retained");
  PTRACK_OBS_SPAN("ptrack.streaming.window");
  ++windows_processed_;
  PTRACK_COUNT("ptrack.core.streaming.windows");

  // Steady-state allocation discipline: every incremental (non-flush) hop
  // after warm-up runs under a NoAllocScope. By default the scope only
  // counts (visible via alloc::thread_stats()); once set_enforce_no_alloc
  // armed it and with checks enabled, a stray allocation throws at its
  // call site.
  const auto mode = (!flush && warmed_up_ && enforce_no_alloc_)
                        ? alloc::NoAllocScope::Mode::kEnforce
                        : alloc::NoAllocScope::Mode::kCount;
  {
    alloc::NoAllocScope guard("StreamingTracker::run_hop", mode);
    pipe_.advance(ring_, flush);

    // The assembler finalizes events chronologically and never retracts, so
    // the drained batch appends to ready_ already sorted — no per-hop sort.
    // Capacity-preserving drains keep the hop allocation-free once ready_
    // has warmed up.
    pipe_.drain_events(ready_);
    pipe_.discard_cycles();  // streaming exposes events only

    // Bounded memory: drop raw samples no stage will read again.
    ring_.trim_to(std::min(pipe_.min_required_index(), ring_.end()));
  }
  if (flush) warmed_up_ = true;
}

std::vector<StepEvent> StreamingTracker::poll() {
  std::vector<StepEvent> out;
  out.reserve(ready_.size());
  poll_into(out);
  return out;
}

// ptrack-lint: allow(entry-check) append-only drain; nothing to validate
void StreamingTracker::poll_into(std::vector<StepEvent>& out) {
  out.insert(out.end(), ready_.begin(), ready_.end());
  emitted_steps_ += ready_.size();
  PTRACK_COUNT_N("ptrack.core.streaming.events", ready_.size());
  for (const StepEvent& e : ready_) {
    emitted_distance_ += e.stride;
    emitted_degraded_ += e.degraded ? 1 : 0;
  }
  ready_.clear();
}

// ptrack-lint: allow(entry-check) terminal flush is legal in any state
std::vector<StepEvent> StreamingTracker::finish() {
  std::vector<StepEvent> out;
  out.reserve(ready_.size());
  drain_into(out);
  return out;
}

// ptrack-lint: allow(entry-check) terminal flush is legal in any state
void StreamingTracker::drain_into(std::vector<StepEvent>& out) {
  if (quality_) quality_->flush(ring_);
  run_hop(/*flush=*/true);
  samples_since_hop_ = 0;
  poll_into(out);
}

}  // namespace ptrack::core
