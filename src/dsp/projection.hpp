// Acceleration projection onto the vertical and anterior directions.
//
// This is PTrack's projection frontend (paper SIII-B2): the vertical
// direction comes from the gravity estimate (commodity platforms expose the
// same via their gravity virtual sensor); the anterior direction is the
// principal axis of the horizontal residual acceleration, recovered by a
// least-squares fit — when a user walks, the arm's back-and-forth swing
// makes the anterior axis the direction of largest horizontal variance.
//
// The two axis estimators are the only copies of that arithmetic in the
// tree. They are templates over the channel precision (double, or float for
// the f32 streaming frontend) and run on structure-of-arrays channel spans;
// the axis directions themselves are always reduced in double, since their
// three components carry their error into every projected sample. Both
// instantiations live in projection.cpp. core::project_channels_into builds
// the PTrack frontend on them; project() below is the whole-trace
// projection the baseline models use.

#pragma once

#include <span>
#include <vector>

#include "common/vec3.hpp"

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

/// Estimates the unit "up" direction from specific-force channels by heavy
/// low-pass filtering (cutoff_hz, 0.3 Hz in PTrack) and averaging: all three
/// channels go through the lane-parallel zero-phase filter in one pass and
/// only their means are kept. For a device at rest or in cyclic motion the
/// low-passed specific force points up with magnitude ~g. Requires >= 4
/// samples per channel; clobbers `ws` scratch slot 0 of precision T.
/// T is double or float.
template <typename T>
Vec3 estimate_up(std::span<const T> x, std::span<const T> y,
                 std::span<const T> z, double fs, double cutoff_hz,
                 Workspace& ws);

/// Principal horizontal direction of the residual (gravity-removed)
/// acceleration: the eigenvector of the 2x2 horizontal covariance with the
/// larger eigenvalue. `up` must be a unit vector. The per-sample residual
/// coordinates are computed in T by the SIMD projection kernel (into
/// per-thread scratch); the covariance is accumulated in double.
template <typename T>
Vec3 principal_horizontal_direction(std::span<const T> x,
                                    std::span<const T> y,
                                    std::span<const T> z, const Vec3& up);

/// Whole-trace projection: up from the gravity estimate, forward from the
/// principal horizontal direction, then vertical = f.up - g and the
/// horizontal residual split into anterior/lateral. Requires at least 4
/// samples and fs > 0.
ProjectedSignal project(std::span<const double> x, std::span<const double> y,
                        std::span<const double> z, double fs);

}  // namespace ptrack::dsp
