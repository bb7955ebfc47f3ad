// Reusable scratch memory for the DSP kernels.
//
// The streaming tracker projects and filters every hop, and the batch
// runner pushes thousands of traces through the pipeline; without buffer
// reuse every call pays a fresh round of large allocations (filtfilt
// padding, projection lanes, gravity weights). A Workspace owns those
// buffers so repeated calls run allocation-free once capacities have grown
// to the working-set size.
//
// Ownership rules:
//  * One Workspace per pipeline instance (core::PTrack owns one), never
//    shared between threads — scratch contents are clobbered by every call.
//  * Kernels identify their buffers by slot index so a caller composing two
//    kernels can hand the same Workspace to both without aliasing, as long
//    as nested calls use disjoint slots (each kernel documents its slots).
//  * Contents of a scratch buffer are unspecified on entry; kernels must
//    fully overwrite the range they request.

#pragma once

#include <array>
#include <cstddef>

#include "dsp/aligned.hpp"

namespace ptrack::dsp {

class Workspace {
 public:
  static constexpr std::size_t kRealSlots = 4;

  Workspace() = default;
  /// Copying yields a fresh, empty workspace: scratch contents are transient
  /// by contract, and sharing buffers across copies would alias. This keeps
  /// owners (e.g. core::PTrack) copyable.
  Workspace(const Workspace&) {}
  Workspace& operator=(const Workspace&) { return *this; }
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Scratch buffer of n doubles (resized, contents unspecified). All
  /// scratch storage is 64-byte aligned (see dsp/aligned.hpp) so SIMD
  /// kernels fed from workspace slots start on a cache-line boundary.
  AlignedVector<double>& real_scratch(std::size_t slot, std::size_t n);

 private:
  std::array<AlignedVector<double>, kRealSlots> real_;
};

}  // namespace ptrack::dsp
