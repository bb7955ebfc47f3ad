// Projection frontend: raw wrist trace -> band-limited vertical + anterior
// acceleration channels (paper SIII-B2), computed on an absolute grid of
// blocks so that its output depends on the samples alone, never on how a
// stream was sliced into hops.
//
// The grid has blocks of B = grid_block(fs) samples (one second). Block k
// of a stream, [kB, (k+1)B), is projected once, with its own axes: the
// gravity estimate and the principal horizontal direction
// (dsp/projection.hpp) over the trailing axis window
// (StepCounterConfig::anterior_window_s, cut to whole blocks) that ends at
// the block's end; a stream's first fit waits for kMinAxisWindowS and
// projects everything before it. Both channels then pass through
// GridLowpass below, which at each grid point g finalizes them below
// g - grid_settle(B), half a block back. A batch trace is the same
// computation with its final partial block flushed on the last grid fit's
// axes (a trace shorter than the first fit is fit over all of it).
// ProjectionStage (core/stages.hpp) drives both; project_trace is its flush
// over a trace.
//
// Each block has one up axis, so the channels must be in a platform frame
// whose vertical does not turn with the wrist. A device-frame recording is
// rotated into one first, with the watch's gravity or rotation-vector
// sensor.

#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/ring.hpp"
#include "dsp/biquad.hpp"
#include "dsp/simd.hpp"
#include "dsp/workspace.hpp"

namespace ptrack::core {

/// Projected and band-limited channels, ready for cycle analysis.
struct ProjectedChannels {
  std::vector<double> vertical;  ///< low-passed linear vertical accel
  std::vector<double> anterior;  ///< low-passed anterior accel
  double fs = 0.0;
};

/// Samples per grid block: one second at `fs`, and at least 16 (the
/// shortest span the axis fits take). fs > 0.
[[nodiscard]] std::size_t grid_block(double fs);

/// Shortest axis window (s) a stream's projection fits: the first fit waits
/// for this much signal (rounded up to the grid) and projects all of it.
inline constexpr double kMinAxisWindowS = 4.0;

/// Span (s) at each end of an axis window over which the gravity weights
/// taper (dsp/projection.hpp): the gravity estimate weighs samples there
/// one by one, and whole blocks between by their mean weight.
inline constexpr double kTaperS = 5.0;

/// Samples a low-pass backward pass settles over: the pass from grid point
/// g finalizes the samples below g - grid_settle(B). Half a grid block,
/// 0.5 s from 16 Hz up (longer below): six time constants of the output
/// low-pass's slowest pole (tau ~ 83 ms at 5 Hz).
[[nodiscard]] constexpr std::size_t grid_settle(std::size_t block) {
  return block / 2;
}

/// Reflected pad (samples per side, clamped to the signal) of the output
/// low-pass.
inline constexpr std::size_t kLowpassPad = 64;

/// The output low-pass: an order-4 Butterworth at min(lowpass_hz, 0.45 fs),
/// run zero-phase over both projected channels.
[[nodiscard]] dsp::BiquadCascade output_lowpass(double lowpass_hz, double fs);

/// The output low-pass over two growing channels (vertical, anterior),
/// finalized in ranges. The forward pass runs once over every appended
/// sample and carries its two-channel state; it starts from zero state
/// behind the usual reflected left pad once kLowpassPad + 1 samples exist
/// (or at flush, with the pad clamped to the samples there are). A range is
/// finalized by a zero-state backward pass that starts at the channels' end
/// when the range was requested, behind the usual reflected right pad (the
/// forward pass continued over it), and runs back to the range's start. So
/// a finalized sample's value depends on the samples up to where its pass
/// started; a caller that appends and finalizes at fixed grid points gets
/// the same values however its input arrives. A single flush over a whole
/// signal is dsp::filtfilt_multi_into over it, bit for bit.
///
/// Passes run two at a time, one per lane pair of the four-lane filter, as
/// soon as two are requested; run_passes() runs a lone one. Lanes never
/// mix, so the values do not depend on the pairing.
class GridLowpass {
 public:
  GridLowpass(double lowpass_hz, double fs);

  /// Appends the next n samples of both channels and runs the forward
  /// pass over them. `write(vertical, anterior)` fills them in place: two
  /// spans of n values at the end of the input rings, so a producer
  /// writes straight into the rings. Clobbers `ws` real scratch.
  template <class Write>
  void append(std::size_t n, Write&& write, dsp::Workspace& ws) {
    const std::span<double> vertical = pre_v_.extend(n);
    write(vertical, pre_a_.extend(n));
    forward_appended(n, ws);
  }
  /// Requests the finalization of [requested_end(), upto) by a backward
  /// pass from end(); upto <= end(). Ignored before the forward pass has
  /// started or when upto <= requested_end().
  void finalize(std::size_t upto, dsp::Workspace& ws);
  /// Runs a requested pass still waiting for a partner.
  void run_passes(dsp::Workspace& ws);
  /// End of stream: starts the forward pass if it has not, then finalizes
  /// up to end(). The channels may grow afterwards.
  void flush(dsp::Workspace& ws);

  /// One past the newest appended sample (absolute).
  [[nodiscard]] std::size_t end() const { return pre_v_.end(); }
  /// One past the newest finalized sample (absolute).
  [[nodiscard]] std::size_t final_end() const { return vert_.end(); }
  [[nodiscard]] const Ring<double>& vertical() const { return vert_; }
  [[nodiscard]] const Ring<double>& anterior() const { return ant_; }
  /// Drops finalized samples below `new_base` (consumers done).
  void trim_output(std::size_t new_base);

 private:
  using State =
      std::array<double,
                 dsp::simd::cascade_state_size(dsp::BiquadCascade::kMaxSections)>;
  /// A requested backward pass: from `at` (forward state `state` there),
  /// finalizing [from, upto).
  struct Pass {
    std::size_t from;
    std::size_t at;
    std::size_t upto;
    State state;
  };

  // Lays out the newest n appended samples as filter rows and runs the
  // forward pass over them (starting it once there is enough signal).
  void forward_appended(std::size_t n, dsp::Workspace& ws);
  void start(std::size_t pad, dsp::Workspace& ws);
  // Runs the forward pass over rows [b, end()), in place.
  void forward(std::size_t b);
  void run(std::span<const Pass> passes, dsp::Workspace& ws);
  void trim_inputs();
  [[nodiscard]] double* row(std::size_t i) {
    return rows_.data() + (i - rows_base_) * dsp::simd::kIirLanes;
  }
  [[nodiscard]] std::size_t requested_end() const {
    return pending_ ? pass_.upto : final_end();
  }

  std::array<dsp::BiquadCoeffs, dsp::BiquadCascade::kMaxSections> sections_{};
  std::size_t nsec_ = 0;
  State state_{};  ///< forward state after the newest appended sample
  bool started_ = false;
  Pass pass_{};    ///< a requested pass waiting for a partner
  bool pending_ = false;
  Ring<double> pre_v_;  ///< appended channels (pads read them)
  Ring<double> pre_a_;
  /// Rows [rows_base_, end()) in the filter layout (v, a, 0, 0):
  /// forward-filtered once the pass has started.
  std::vector<double> rows_;
  std::size_t rows_base_ = 0;
  Ring<double> vert_;   ///< finalized
  Ring<double> ant_;
};

}  // namespace ptrack::core
