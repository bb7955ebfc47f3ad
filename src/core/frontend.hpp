// Projection frontend: raw wrist trace -> band-limited vertical + anterior
// acceleration channels (paper SIII-B2).
//
// One implementation, project_channels_into, shared by the batch pipeline,
// the stream and the baselines. Its axes come from dsp::estimate_up and
// dsp::principal_horizontal_direction (dsp/projection.hpp), the tree's only
// copies of that arithmetic; every per-sample pass runs through the SIMD
// kernels. project_trace is the batch adapter; the streaming
// ProjectionStage (core/stages.hpp) calls project_channels_into directly on
// ring views.
//
// Each call has one up axis, the gravity estimate of its axis history, so
// the channels must be in a platform frame whose vertical does not turn
// with the wrist. A device-frame recording is rotated into one first, with
// the watch's gravity or rotation-vector sensor.
//
// The gravity estimate is a fixed linear functional of the axis history
// (dsp/projection.hpp derives it): its weights depend only on the history
// length, fs and the 0.3 Hz cutoff. A steady streaming hop always pins the
// same 20 s history length, so ProjectionStage holds one immutable
// dsp::GravityWeights table for it, shared process-wide by every stage of
// the same fs (dsp::shared_gravity_weights) and held for the stage's
// lifetime; such a hop passes the table in AxisHistory::up_weights and does
// no filtering, lookup or allocation for the up axis. ProjectionStage
// takes the shorter lengths of warm-up hops (pinned, and the unpinned
// stream-start regions) from the shared registry too: they repeat across
// streams. The batch flush and windowed-anterior regions compute their
// weights into workspace scratch, at the cost of one scalar filter pass
// each way over the history.
//
// A streaming caller may also carry the output low-pass's forward state
// across calls (FilterCarry, LowpassCarry): the call then still fits its
// axes over the whole span but projects and filters only the samples
// after the carried lead.

#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "dsp/biquad.hpp"
#include "dsp/simd.hpp"
#include "dsp/workspace.hpp"
#include "imu/trace.hpp"

namespace ptrack::core {

/// Projected and band-limited channels, ready for cycle analysis.
struct ProjectedChannels {
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
/// `ws` (optional) provides reusable filter scratch so repeated calls avoid
/// re-growing it; without one the call uses a local workspace.
///
/// An adapter: splits the trace into channel arrays and calls
/// project_channels_into.
ProjectedChannels project_trace(const imu::Trace& trace, double lowpass_hz,
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
///
/// `up_weights` (optional) are the gravity estimate's weights for exactly
/// this history length at the call's fs and dsp::kGravityCutoffHz — a
/// precomputed dsp::GravityWeights table. With empty spans they are the
/// weights for the projected span itself, which the axes are then fit
/// over. Empty means the call computes them into workspace scratch; either
/// way the up vector is the same.
struct AxisHistory {
  std::span<const double> ax;
  std::span<const double> ay;
  std::span<const double> az;
  std::span<const double> up_weights{};
  [[nodiscard]] bool empty() const { return ax.empty(); }
};

/// Reflected pad (samples per side, clamped to the span) of the output
/// low-pass.
inline constexpr std::size_t kLowpassPad = 64;

/// The output low-pass: an order-4 Butterworth at min(lowpass_hz, 0.45 fs),
/// run zero-phase over both projected channels.
[[nodiscard]] dsp::BiquadCascade output_lowpass(double lowpass_hz, double fs);

/// The output low-pass's forward state carried into a projection call
/// from the earlier calls of one stream. Samples [0, lead) of the call's
/// spans were finalized before: they feed the axis fits exactly as
/// without a carry, but are neither projected nor filtered, and the
/// outputs hold samples [lead, n) only. `raw_state` is the forward state
/// at `lead` over the four raw lanes (LowpassCarry), in simd::cascade_state
/// layout. The call converts it to the vertical and anterior channels'
/// state with its own axes and starts the forward pass from it in place of
/// the left pad. Empty = no carry (lead must be 0).
struct FilterCarry {
  std::size_t lead = 0;
  std::span<const double> raw_state{};
  [[nodiscard]] bool empty() const { return raw_state.empty(); }
};

/// Forward state of the output low-pass over four raw input lanes
/// (f_x, f_y, f_z, 1), carried across the hops of one stream. Every
/// projected sample is a fixed linear combination of its lanes under the
/// call's axes (vertical = (u, -g), anterior = (d - (u.d) u, 0)), and
/// biquad state is linear in its input history, so converting this state
/// with the current axes gives the state a zero-state filter over that
/// whole history, projected with those axes, would hold — the same history
/// re-projected every hop, without re-filtering it.
class LowpassCarry {
 public:
  LowpassCarry(double lowpass_hz, double fs);

  /// True when the state is finite and sits just before absolute sample
  /// `i`.
  [[nodiscard]] bool valid_at(std::size_t i) const {
    return valid_ && at_ == i;
  }
  [[nodiscard]] FilterCarry carry(std::size_t lead) const {
    return {lead, state_span()};
  }

  /// Re-seeds from zero state: the forward pass a carry-less projection
  /// call over `ax/ay/az` runs, reflected left pad included, stopped before
  /// sample `count`. The state then sits before absolute sample `at`.
  /// Clobbers `ws` real scratch (as does advance).
  void seed(std::span<const double> ax, std::span<const double> ay,
            std::span<const double> az, std::size_t count, std::size_t at,
            dsp::Workspace& ws);

  /// Advances the state over the samples of the spans, which must start at
  /// the state's position; it then sits after them. A non-finite result
  /// invalidates the carry (the next hop re-seeds).
  void advance(std::span<const double> ax, std::span<const double> ay,
               std::span<const double> az, dsp::Workspace& ws);

 private:
  // Runs the cascade over `count` interleaved lane rows (clobbered) from
  // the state.
  void run(double* rows, std::size_t count);
  [[nodiscard]] std::span<const double> state_span() const {
    return {state_.data(), dsp::simd::cascade_state_size(nsec_)};
  }

  std::array<dsp::BiquadCoeffs, dsp::BiquadCascade::kMaxSections> sections_{};
  std::size_t nsec_ = 0;
  std::array<double,
             dsp::simd::cascade_state_size(dsp::BiquadCascade::kMaxSections)>
      state_{};
  std::size_t at_ = 0;
  bool valid_ = false;
};

/// Structure-of-arrays projection over raw channel spans (e.g. views into
/// an imu::SampleRing) — no Trace or AoS materialization. Fills `out` in
/// place (resizing its channels), so a caller that keeps one
/// ProjectedChannels across hops stops allocating once the channel
/// capacity has warmed up.
///
/// The up direction is the batch gravity estimate over the axis spans:
/// dsp::estimate_up, a weighted sum with the gravity weights (taken from
/// `axes.up_weights` when given, otherwise computed into `ws` real
/// scratch).
///
/// `ws` provides the filter scratch and the gravity weights (real scratch).
///
/// `seam` (optional) carries the anterior sign across calls; null or
/// zero-initialized reproduces batch behaviour.
///
/// `axes` (optional) supplies wider history spans for axis estimation;
/// see AxisHistory. It pins one anterior direction for the whole call, so
/// `anterior_window_s` has no effect with it.
///
/// `carry` (optional) continues the output low-pass of a stream; see
/// FilterCarry. Windowed anterior mode converts it with the direction of
/// the window that holds sample `lead`. Requires n - lead > kLowpassPad so
/// the right pad is not clamped shorter than a carry-less call's.
void project_channels_into(std::span<const double> ax,
                           std::span<const double> ay,
                           std::span<const double> az, double fs,
                           double lowpass_hz, double anterior_window_s,
                           dsp::Workspace& ws, ProjectionSeam* seam,
                           const AxisHistory& axes, ProjectedChannels& out,
                           const FilterCarry& carry = {});

}  // namespace ptrack::core
