// Projection frontend: raw wrist trace -> band-limited vertical + anterior
// acceleration channels (paper SIII-B2).

#pragma once

#include "dsp/projection.hpp"
#include "dsp/workspace.hpp"
#include "imu/trace.hpp"

namespace ptrack::core {

/// Projected and band-limited signals ready for cycle analysis.
struct ProjectedTrace {
  std::vector<double> vertical;  ///< low-passed linear vertical accel
  std::vector<double> anterior;  ///< low-passed anterior accel
  double fs = 0.0;
};

/// Projects a trace onto vertical/anterior axes and low-passes both channels
/// with a zero-phase Butterworth at `lowpass_hz` (zero-phase so critical
/// point *positions* are preserved). Requires >= 16 samples.
///
/// `anterior_window_s` selects how the forward axis is estimated: 0 fits
/// one principal horizontal direction over the whole trace (fine for
/// straight walks); > 0 re-fits it per window of that many seconds with
/// sign continuity across windows, which keeps the anterior channel
/// faithful on routes with turns.
///
/// `ws` (optional) provides reusable scratch for the zero-phase filters so
/// repeated calls (streaming windows, batch traces) avoid the per-call
/// padding allocations.
///
/// An adapter: splits the trace into channel arrays and calls
/// project_channels_into.
ProjectedTrace project_trace(const imu::Trace& trace, double lowpass_hz,
                             double anterior_window_s = 0.0,
                             dsp::Workspace* ws = nullptr);

/// Projection for *raw device-frame* streams: tracks the up direction per
/// sample with a gyro/accel complementary filter (dsp::AttitudeEstimator)
/// instead of the batch gravity low-pass, then projects as project_trace
/// does. Use when the trace carries raw sensor data rather than a
/// platform's gravity-referenced output.
ProjectedTrace project_trace_with_attitude(const imu::Trace& trace,
                                           double lowpass_hz,
                                           double anterior_window_s = 0.0,
                                           dsp::Workspace* ws = nullptr);

/// Sign-continuity state for the anterior principal direction, carried
/// across successive projection calls. PCA is sign-ambiguous; a streaming
/// pipeline that re-projects overlapping tails each hop must keep the
/// anterior channel's sign stable across hops, so it threads one seam
/// through every call. A zero-initialized seam (or none) reproduces batch
/// behaviour exactly.
struct ProjectionSeam {
  Vec3 prev_anterior_dir{};
};

/// Optional wider raw-history spans for projection-axis estimation. The
/// batch projection estimates the up direction and the anterior principal
/// direction from the span it projects; an incremental pipeline projects
/// only a short tail per hop, and axes fit to that tail wander with local
/// gestures. Passing the last N seconds of raw history here pins the axes
/// to that longer window instead (the projected span itself is unchanged).
/// Empty means "estimate from the projected span" — the batch behaviour.
struct AxisHistory {
  std::span<const double> ax;
  std::span<const double> ay;
  std::span<const double> az;
  [[nodiscard]] bool empty() const { return ax.empty(); }
};

/// Structure-of-arrays projection over raw channel spans (e.g. views into
/// an imu::SampleRing) — no Trace or AoS materialization. The one
/// projection implementation: project_trace and project_trace_with_attitude
/// split a trace into channels and call it. Fills `out` in place (resizing
/// its channels), so a caller that keeps one ProjectedTrace across hops
/// stops allocating once the channel capacity has warmed up.
///
/// `ups` (optional) supplies a per-sample up track (attitude-filter path);
/// it must be empty or exactly ax.size() long. When empty, the up
/// direction is the batch gravity estimate over the spans.
///
/// `seam` (optional) carries the anterior sign across calls; null or
/// zero-initialized reproduces batch behaviour.
///
/// `axes` (optional) supplies wider history spans for axis estimation;
/// see AxisHistory. With per-sample `ups` the up track is used as given
/// and `axes` only pins the anterior principal direction.
void project_channels_into(std::span<const double> ax,
                           std::span<const double> ay,
                           std::span<const double> az, double fs,
                           double lowpass_hz, double anterior_window_s,
                           std::span<const Vec3> ups, dsp::Workspace* ws,
                           ProjectionSeam* seam, const AxisHistory& axes,
                           ProjectedTrace& out);

/// Float32 projection results (see the float-span project_channels_into).
struct ProjectedTraceF {
  std::vector<float> vertical;
  std::vector<float> anterior;
  double fs = 0.0;
};

/// Float32 mirror of AxisHistory.
struct AxisHistoryF {
  std::span<const float> ax;
  std::span<const float> ay;
  std::span<const float> az;
  [[nodiscard]] bool empty() const { return ax.empty(); }
};

/// Float32 fast-path projection over float channel spans (e.g. the
/// SampleRing's float mirrors), filling `out` in place. Same structure as
/// the double overload — batch gravity estimate, principal horizontal
/// direction, vertical + anterior projection, zero-phase low-pass — but
/// every per-sample pass runs in float32 through the SIMD kernels (twice
/// the lane width and half the memory traffic). Axis *directions* are
/// still reduced in double: they are three numbers whose error multiplies
/// every sample. No attitude-filter (per-sample ups) variant: callers
/// needing it stay on the double path. Divergence from the double pipeline
/// is bounded by float rounding in the projections and filters;
/// tests/test_streaming_f32.cpp gates it against the batch-double oracle.
void project_channels_into(std::span<const float> ax,
                           std::span<const float> ay,
                           std::span<const float> az, double fs,
                           double lowpass_hz, double anterior_window_s,
                           dsp::Workspace& ws, ProjectionSeam* seam,
                           const AxisHistoryF& axes, ProjectedTraceF& out);

}  // namespace ptrack::core
