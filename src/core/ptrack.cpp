#include "core/ptrack.hpp"

#include "common/error.hpp"
#include "core/stages.hpp"
#include "imu/sample_ring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::core {

PTrack::PTrack(PTrackConfig cfg) : cfg_(cfg) {
  // Construct-and-discard to validate the configuration eagerly (streak,
  // delta, profile bounds), matching the pre-stage-graph behaviour where
  // the counter and estimator members were built here.
  (void)GaitIdentifier(cfg_.counter);
  (void)StrideEstimator(cfg_.stride);
}

void PTrack::set_profile(const StrideProfile& profile) {
  cfg_.stride.profile = profile;
}

TrackResult PTrack::process(const imu::Trace& trace) const {
  if (trace.size() < 16) return {};
  PTRACK_OBS_SPAN("ptrack.core.process");
  PTRACK_COUNT("ptrack.core.traces");
  imu::SampleRing ring;
  if (!cfg_.quality.enabled) {
    for (const imu::Sample& s : trace.samples()) ring.push(s, 0);
    return run_pipeline(ring, trace.fs());
  }

  // The trace streams through the online quality stage straight into the
  // ring, with its per-sample flags: the drained-stream computation.
  obs::StageTimer timer;
  const imu::QualityReport report =
      imu::repair_into(trace, cfg_.quality, ring);
  const double quality_us = timer.lap_us();
  if (!report.usable) {
    PTRACK_COUNT("ptrack.core.unusable_traces");
    throw Error("PTrack::process: trace unusable (" +
                std::to_string(report.nonfinite_samples) + " of " +
                std::to_string(trace.size()) +
                " samples non-finite or nonphysical)");
  }
  // The pipeline's assembler reads the flags off the ring, so cycle and
  // event confidences come out already annotated.
  TrackResult result = run_pipeline(ring, trace.fs());

  result.quality.clean_fraction = report.clean_fraction;
  result.quality.repaired_fraction = report.repaired_fraction;
  result.quality.masked_fraction = report.masked_fraction;
  result.quality.dropout_samples = report.dropout_samples;
  result.quality.saturated_samples = report.saturated_samples;
  result.quality.spike_samples = report.spike_samples;
  result.quality.nonfinite_samples = report.nonfinite_samples;
  result.timing.quality_us = quality_us;
  result.timing.total_us = quality_us + timer.lap_us();
  return result;
}

TrackResult PTrack::run_pipeline(imu::SampleRing& ring, double fs) const {
  // One push + one flush over a fresh pipeline = the batch computation
  // (see core/stages.hpp for the equivalence contract).
  StagePipeline pipeline(cfg_.counter, cfg_.stride, fs);
  pipeline.advance(ring, /*flush=*/true);

  TrackResult result;
  result.events = pipeline.take_events();
  result.cycles = pipeline.take_cycles();
  result.steps = result.events.size();
  const StageStats& stats = pipeline.stats();
  result.timing.project_us = stats.project_us;
  result.timing.count_us = stats.count_us;
  result.timing.stride_us = stats.stride_us;
  result.timing.total_us =
      stats.project_us + stats.count_us + stats.stride_us;
  return result;
}

PTrackCounterAdapter::PTrackCounterAdapter(PTrackConfig cfg)
    : tracker_(cfg) {}

models::StepDetection PTrackCounterAdapter::count_steps(
    const imu::Trace& trace) {
  expects(trace.fs() > 0.0, "count_steps: trace has a sample rate");
  const TrackResult result = tracker_.process(trace);
  models::StepDetection out;
  out.count = result.steps;
  out.step_times.reserve(result.events.size());
  for (const StepEvent& e : result.events) out.step_times.push_back(e.t);
  return out;
}

}  // namespace ptrack::core
