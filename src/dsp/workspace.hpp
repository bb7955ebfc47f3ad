// Reusable scratch memory for the DSP kernels.
//
// The streaming tracker projects and filters every hop, and the batch
// runner pushes thousands of traces through the pipeline; without buffer
// reuse every call pays a fresh round of large allocations (filtfilt
// padding, projection lanes, gravity weights). A Workspace owns that
// buffer so repeated calls run allocation-free once its capacity has grown
// to the working-set size.
//
// Ownership rules:
//  * One Workspace per pipeline instance (core::PTrack owns one), never
//    shared between threads — scratch contents are clobbered by every call.
//  * There is one real scratch buffer: a kernel that takes it must not
//    call another kernel that takes it while it still reads its own
//    scratch (each kernel documents that it uses the workspace).
//  * Contents of the scratch are unspecified on entry; kernels must fully
//    overwrite the range they request.

#pragma once

#include <cstddef>
#include <span>

#include "dsp/aligned.hpp"

namespace ptrack::dsp {

class Workspace {
 public:
  Workspace() = default;
  /// Copying yields a fresh, empty workspace: scratch contents are transient
  /// by contract, and sharing buffers across copies would alias. This keeps
  /// owners (e.g. core::PTrack) copyable.
  Workspace(const Workspace&) {}
  Workspace& operator=(const Workspace&) { return *this; }
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// View of n doubles of scratch (contents unspecified), 64-byte aligned
  /// (see dsp/aligned.hpp) so SIMD kernels fed from it start on a
  /// cache-line boundary. The buffer only grows: a request no larger than
  /// an earlier one neither reallocates nor zero-fills.
  std::span<double> real_scratch(std::size_t n);

 private:
  AlignedVector<double> real_;
};

}  // namespace ptrack::dsp
