// PTrack public facade: the full pipeline of Fig. 2 behind one call.
//
//   PTrack tracker(config);
//   core::TrackResult r = tracker.process(trace);
//   r.steps, r.events[i].stride, r.distance() ...
//
// The facade also adapts PTrack to the models::IStepCounter interface so
// the figure benches can treat all counters uniformly.

#pragma once

#include <memory>

#include "core/stride_estimator.hpp"
#include "core/types.hpp"
#include "imu/quality.hpp"
#include "imu/sample_ring.hpp"
#include "imu/trace.hpp"
#include "models/step_counter.hpp"

namespace ptrack::core {

/// Facade configuration.
struct PTrackConfig {
  StepCounterConfig counter{};
  StrideConfig stride{};
  /// Signal-quality layer: degraded input (dropouts, saturation, spikes,
  /// garbage cells) is detected and repaired before the pipeline runs, and
  /// every emitted step carries a confidence. Set quality.enabled = false
  /// to process the raw samples verbatim (repair-off ablation).
  imu::QualityConfig quality{};
};

/// The full PTrack pipeline: projection -> segmentation -> gait
/// identification -> step counting -> per-step stride estimation.
///
/// Since the stage-graph refactor, process() is a thin batch driver over
/// the same incremental core the streaming tracker runs (core/stages.hpp):
/// the trace streams through the online quality stage into an
/// imu::SampleRing and a fresh StagePipeline is advanced once with flush,
/// which degenerates every stage to exactly the batch computation. Batch
/// results are therefore the oracle the streaming mode is validated
/// against; a stream drained in one hop reproduces them bit for bit.
///
/// process() keeps no state between calls: its filter scratch is the
/// calling thread's (dsp::thread_workspace), so repeated calls on a thread
/// run without per-window scratch allocations, and one instance may serve
/// any number of threads at once (runtime::BatchRunner shares one).
/// Results are a pure function of the input trace.
class PTrack {
 public:
  explicit PTrack(PTrackConfig cfg = {});

  /// Runs the full pipeline over a trace. Every counted step's event gets
  /// its stride filled in (0 when the geometry solve degenerates). With the
  /// quality layer enabled (default) the trace streams through the online
  /// quality stage first (imu::repair_into: the same computation a drained
  /// StreamingTracker runs), and the result's quality/confidence fields are
  /// populated;
  /// throws ptrack::Error when the trace is unusable (dominated by
  /// non-finite or nonphysical cells — there is no signal to track).
  [[nodiscard]] TrackResult process(const imu::Trace& trace) const;

  [[nodiscard]] const PTrackConfig& config() const { return cfg_; }
  void set_profile(const StrideProfile& profile);

 private:

  /// Batch driver: flushes one StagePipeline over the loaded ring.
  [[nodiscard]] TrackResult run_pipeline(imu::SampleRing& ring,
                                         double fs) const;

  PTrackConfig cfg_;
};

/// models::IStepCounter adapter over the PTrack pipeline.
class PTrackCounterAdapter final : public models::IStepCounter {
 public:
  explicit PTrackCounterAdapter(PTrackConfig cfg = {});
  [[nodiscard]] std::string_view name() const override { return "PTrack"; }
  models::StepDetection count_steps(const imu::Trace& trace) override;

 private:
  PTrack tracker_;
};

}  // namespace ptrack::core
