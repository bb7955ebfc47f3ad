// Streaming (online) PTrack: push IMU samples as they arrive, poll step
// events as they are confirmed — the operating mode of the paper's
// smartwatch prototype, with bounded memory.
//
// The pushed stream flows through the online quality stage
// (imu::IncrementalQuality) into a contiguous SoA ring (imu::SampleRing),
// and every hop advances the same incremental stage graph the batch facade
// runs (core/stages.hpp). Each hop touches only the new samples plus
// bounded finalization margins, so per-hop cost is independent of how long
// the stream has been running. Events come out finalized, chronological
// and never retracted.
//
// Consistency: every stage computes on a grid anchored at the stream's
// first sample, so at any hop and in any chunking the events equal the
// batch result on the same samples (PTrack::process), field for field
// (tests/test_streaming_equivalence.cpp; DESIGN.md §13). The hop only sets
// how often the pipeline advances, i.e. CPU per sample and how soon a
// finalized event is handed out.
//
// Short streams: the pipeline needs >= 16 samples to project and three
// step peaks (>= ~0.7 s apart) to form a cycle, so finish() on a stream of
// fewer than 32 samples emits nothing.

#pragma once

#include <optional>
#include <vector>

#include "core/ptrack.hpp"
#include "core/stages.hpp"
#include "imu/quality.hpp"
#include "imu/sample.hpp"
#include "imu/sample_ring.hpp"
#include "imu/trace.hpp"

namespace ptrack::core {

/// Streaming configuration on top of the batch PTrackConfig.
struct StreamingConfig {
  PTrackConfig pipeline{};
  /// Advance the pipeline after this many seconds of new samples. (No
  /// analysis window: stage state carries across hops, and what a stage
  /// finalizes does not depend on the hop; see core/stages.hpp.)
  double hop_s = 2.0;
};

/// Lifetime statistics of a StreamingTracker (see stats()). All values are
/// cumulative since construction and cover confirmed (polled or ready)
/// events only.
struct StreamingStats {
  std::size_t samples_pushed = 0;     ///< samples accepted by push()
  std::size_t windows_processed = 0;  ///< pipeline hops (advances)
  std::size_t events_emitted = 0;     ///< events handed out via poll()
  std::size_t degraded_events = 0;    ///< emitted events flagged degraded
  double distance_m = 0.0;            ///< sum of emitted strides

  /// Fraction of emitted events that were degraded (0 when none emitted).
  [[nodiscard]] double degraded_fraction() const {
    return events_emitted == 0
               ? 0.0
               : static_cast<double>(degraded_events) /
                     static_cast<double>(events_emitted);
  }
};

/// Online tracker. Not thread-safe; drive it from one thread.
class StreamingTracker {
 public:
  /// `fs` is the sample rate of the pushed stream (Hz, > 0).
  explicit StreamingTracker(double fs, StreamingConfig config = {});

  /// Pushes one sample (timestamps are assigned internally from the sample
  /// count, so the caller may pass raw sensor readings).
  void push(const imu::Sample& sample);

  /// Pushes a whole batch. Throws InvalidArgument when the trace's sample
  /// rate does not match the tracker's `fs` — silently mixing rates would
  /// corrupt every time-based stage (resample the trace first).
  void push(const imu::Trace& trace);

  /// Events confirmed since the last poll (chronological). Each event is
  /// emitted exactly once.
  std::vector<StepEvent> poll();

  /// Appends the confirmed events to `out` instead of returning a fresh
  /// vector: with a reused `out`, polling is allocation-free at steady
  /// state (poll() wraps this).
  void poll_into(std::vector<StepEvent>& out);

  /// Flushes all finalization margins at end of stream and returns the
  /// final events. The tracker can keep streaming afterwards (the flush
  /// seam behaves like a stream pause: open stepping streaks are dropped).
  /// Emits nothing when fewer than 32 samples were ever pushed.
  std::vector<StepEvent> finish();

  /// The allocation-shaped dual of finish(): flushes all finalization
  /// margins and appends the final events to `out` (poll_into discipline —
  /// with a reused `out`, draining is allocation-free once warm). This is
  /// the finalize API for hosts that must flush many live trackers on
  /// shutdown — e.g. ptrack_serve's SIGTERM drain path, which walks the
  /// session table calling drain_into on every open stream. Equivalent to
  /// the batch pipeline over the same samples (the PR-5 oracle tie:
  /// tests/test_core_streaming.cpp DrainMatchesBatchOracle).
  void drain_into(std::vector<StepEvent>& out);

  /// Steps emitted so far (confirmed only).
  [[nodiscard]] std::size_t steps() const { return emitted_steps_; }

  /// Emitted steps flagged degraded (their half-cycle was majority-masked
  /// by the quality layer; see StepEvent::degraded). Each polled event also
  /// carries its own quality/degraded fields.
  [[nodiscard]] std::size_t degraded_steps() const {
    return emitted_degraded_;
  }

  /// Distance walked so far (sum of emitted strides, m).
  [[nodiscard]] double distance() const { return emitted_distance_; }

  [[nodiscard]] double fs() const { return fs_; }

  /// Arms an alloc::NoAllocScope in enforce mode around every steady-state
  /// incremental hop (each non-flush advance after the first flush): with
  /// PTrack checks enabled, any heap allocation inside such a hop then
  /// throws InvariantViolation at the offending allocation site — the
  /// enforcement mode of the zero-allocation steady-state contract
  /// (DESIGN.md §15). Off by default: production streams count, not throw.
  /// A test harness streams a warm-up prefix with enforcement off (buffers
  /// and scratch still growing to steady size), then arms it for the
  /// measured region.
  void set_enforce_no_alloc(bool on) { enforce_no_alloc_ = on; }

  /// Snapshot of the tracker's lifetime statistics (hops run, events
  /// emitted, degraded fraction).
  [[nodiscard]] StreamingStats stats() const {
    StreamingStats s;
    s.samples_pushed = samples_pushed_;
    s.windows_processed = windows_processed_;
    s.events_emitted = emitted_steps_;
    s.degraded_events = emitted_degraded_;
    s.distance_m = emitted_distance_;
    return s;
  }

 private:
  // One stage-graph advance over the ring's new tail.
  void run_hop(bool flush);

  double fs_;
  StreamingConfig config_;

  imu::SampleRing ring_;
  StagePipeline pipe_;
  std::optional<imu::IncrementalQuality> quality_;
  std::size_t hop_samples_;
  std::size_t samples_since_hop_ = 0;
  bool warmed_up_ = false;         ///< a flush hop has run (buffers sized)
  bool enforce_no_alloc_ = false;  ///< see set_enforce_no_alloc()
  double next_t_ = 0.0;            ///< stream time of the next sample

  std::vector<StepEvent> ready_;     ///< confirmed, not yet polled
  std::size_t emitted_steps_ = 0;
  std::size_t emitted_degraded_ = 0;
  double emitted_distance_ = 0.0;
  std::size_t samples_pushed_ = 0;
  std::size_t windows_processed_ = 0;
};

}  // namespace ptrack::core
