// Acceleration projection onto the vertical and anterior directions.
//
// This is PTrack's projection frontend (paper SIII-B2): the vertical
// direction comes from the gravity estimate (commodity platforms expose the
// same via their gravity virtual sensor); the anterior direction is the
// principal axis of the horizontal residual acceleration, recovered by a
// least-squares fit — when a user walks, the arm's back-and-forth swing
// makes the anterior axis the direction of largest horizontal variance.
// One up vector serves a whole fit window, so the channels are expected in
// a platform frame (a device-frame recording is first rotated with the
// platform's gravity or rotation-vector sensor).
//
// The two axis estimators are the only copies of that arithmetic in the
// tree. They run on structure-of-arrays channel spans, and
// core::ProjectionStage builds the PTrack frontend on them, one fit per 1 s
// grid block (core/frontend.hpp); project() below is the whole-trace
// projection the baseline models use.
//
// The gravity estimate is a fixed linear functional. It is defined as
// normalize(mean(filtfilt(pad(x)))) per channel: odd-reflection padding P
// (pad = min(64, n-1) samples each side), an order-2 Butterworth H run
// forward and then backward over the padded signal, each pass from zero
// state, and the mean over the n interior samples. Every step is linear in
// x and data-independent, so mean = w . x with
//     w = P^T (J H J H) 1_I / n,
// where 1_I is the interior indicator and J the time reversal. J H J H is
// symmetric (J H J = H^T for a causal Toeplitz H), so the weights are just
// the same forward/backward cascade run once over 1_I, with each padded
// sample's weight folded back onto the samples it was reflected from
// (+2w on the end sample, -w on the mirrored one). They depend only on
// (n, fs, cutoff): gravity_weights_into computes them into caller scratch,
// and shared_gravity_weights publishes one immutable table per key that
// every stage with the same steady history length shares.
//
// A plain mean is NOT equivalent: the filter's zero-state edge transients
// give the ends of the window far less weight than the middle, and that
// taper is part of the estimate. Replacing w by 1/n moves the up vector by
// ~12 mrad (median; up to ~38) over 20 s windows of synthetic walking.

#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "dsp/aligned.hpp"
#include "dsp/simd.hpp"

namespace ptrack::dsp {

class Workspace;

/// Result of projecting a specific-force (accelerometer) sequence.
struct ProjectedSignal {
  std::vector<double> vertical;  ///< linear vertical acceleration, up positive (m/s^2)
  std::vector<double> anterior;  ///< linear anterior acceleration (m/s^2), sign arbitrary
  std::vector<double> lateral;   ///< horizontal residual orthogonal to anterior
  Vec3 up;                       ///< estimated unit up vector
  Vec3 forward;                  ///< estimated unit anterior vector (horizontal)
  double fs = 0.0;               ///< sample rate (Hz)
};

/// Low-pass cutoff (Hz) of the gravity estimate (clamped to 0.45 fs).
inline constexpr double kGravityCutoffHz = 0.3;

/// Scratch length gravity_weights_into needs for n samples: the padded
/// length n + 2 * min(64, n - 1). n >= 1.
[[nodiscard]] std::size_t gravity_weights_scratch(std::size_t n);

/// Weights of the gravity estimate over n samples (see the header
/// comment): for every channel x of length n, mean(filtfilt(pad(x))) ==
/// sum_i w[i] * x[i] up to rounding. Runs the order-2 Butterworth at
/// min(cutoff_hz, 0.45 fs) forward and backward over the interior
/// indicator in `scratch` (size gravity_weights_scratch(n); contents
/// unspecified on entry), folds the padding back and returns the n weights
/// as a view into `scratch`. Requires n >= 4 and fs > 0.
std::span<const double> gravity_weights_into(std::size_t n, double fs,
                                             double cutoff_hz,
                                             std::span<double> scratch);

/// An immutable weight table for one (n, fs, cutoff) key.
class GravityWeights {
 public:
  GravityWeights(std::size_t n, double fs, double cutoff_hz);
  GravityWeights(const GravityWeights&) = delete;
  GravityWeights& operator=(const GravityWeights&) = delete;

  [[nodiscard]] std::span<const double> weights() const { return weights_; }
  /// cumulative()[j] = the sum of weights()[0, j), n + 1 values: the
  /// weight of any run of positions is the difference of two entries.
  [[nodiscard]] std::span<const double> cumulative() const {
    return cumulative_;
  }
  [[nodiscard]] std::size_t size() const { return weights_.size(); }
  [[nodiscard]] double fs() const { return fs_; }
  [[nodiscard]] double cutoff_hz() const { return cutoff_hz_; }
  /// Bytes of storage (padded scratch length plus the cumulative sums).
  [[nodiscard]] std::size_t bytes() const {
    return (storage_.size() + cumulative_.size()) * sizeof(double);
  }

 private:
  double fs_;
  double cutoff_hz_;
  AlignedVector<double> storage_;
  std::span<const double> weights_;
  AlignedVector<double> cumulative_;
};

/// Bytes of tables nobody holds that the shared registry keeps: enough for
/// a few warm-up ladders (one ladder of 1 s blocks at 100 Hz is ~170 KB).
inline constexpr std::size_t kGravityRegistryUnheldBytes = std::size_t{1}
                                                           << 20;

/// The process-wide table for (n, fs, cutoff_hz), computed on first request
/// and shared read-only by every holder (a streaming ProjectionStage keeps
/// its steady-window table for its lifetime and its warm-up ladder's tables
/// for the whole warm-up, until its axis window is full). Tables no one
/// holds are kept, least recently requested
/// dropped first, while they total at most kGravityRegistryUnheldBytes
/// (the table returned counts as unheld): lengths and rates that streams
/// come back to are computed once per process, and distinct client rates
/// cannot grow the registry past the tables in use plus that budget (or
/// one table, if a single table is larger). Thread-safe; takes a lock, so
/// call it at setup or on a stream's first block, never on a steady one.
std::shared_ptr<const GravityWeights> shared_gravity_weights(
    std::size_t n, double fs, double cutoff_hz);

/// Snapshot of the shared registry's footprint.
struct GravityRegistryStats {
  std::size_t tables = 0;
  std::size_t bytes = 0;         ///< all tables' weight storage
  std::size_t unheld_bytes = 0;  ///< tables only the registry holds
};
[[nodiscard]] GravityRegistryStats gravity_registry_stats();

/// Estimates the unit "up" direction from specific-force channels with the
/// precomputed gravity weights `w` (w.size() == channel length, n >= 4):
/// normalize(sum_i w[i] * f[i]) (simd::weighted_sum3). For a device at
/// rest or in cyclic motion the low-passed specific force points up with
/// magnitude ~g.
Vec3 estimate_up(std::span<const double> x, std::span<const double> y,
                 std::span<const double> z, std::span<const double> w);

/// As above, computing the weights for (x.size(), fs, cutoff_hz) into `ws`
/// real scratch first (clobbered). Requires >= 4 samples per
/// channel and fs > 0.
Vec3 estimate_up(std::span<const double> x, std::span<const double> y,
                 std::span<const double> z, double fs, double cutoff_hz,
                 Workspace& ws);

/// Principal horizontal direction of the residual (gravity-removed)
/// acceleration: the eigenvector of the 2x2 horizontal covariance with the
/// larger eigenvalue. `up` must be a unit vector. The residual coordinates
/// of a sample f in the horizontal basis (e1, e2) are f.e1 and f.e2 (the
/// up component drops out), so the 2x2 covariance is e_a^T C e_b of the
/// 3x3 covariance C of the raw channels: one pass of double moments over
/// the channels (simd::moments3), taken about the first sample so the
/// one-pass formula does not cancel against gravity's offset. No scratch.
Vec3 principal_horizontal_direction(std::span<const double> x,
                                    std::span<const double> y,
                                    std::span<const double> z,
                                    const Vec3& up);

/// As above, from the moments of n > 0 samples about any shift
/// (simd::moments3, or a sum of them over consecutive spans taken about
/// one shift).
Vec3 principal_horizontal_direction(const simd::Moments3& m, std::size_t n,
                                    const Vec3& up);

/// Whole-trace projection: up from the gravity estimate, forward from the
/// principal horizontal direction, then vertical = f.up - g and the
/// horizontal residual split into anterior/lateral. Requires at least 4
/// samples and fs > 0.
ProjectedSignal project(std::span<const double> x, std::span<const double> y,
                        std::span<const double> z, double fs);

}  // namespace ptrack::dsp
