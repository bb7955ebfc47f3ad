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
//  * Scratch belongs to a thread, not to a pipeline: the pipeline stages
//    (core::ProjectionStage, and the core::GridLowpass it drives) take
//    thread_workspace() each time they run, so every tracker and batch
//    run on a thread shares one buffer, and a stream that moves between
//    threads (core::HopJob) uses whichever thread it runs on. A Workspace
//    is never shared between threads.
//  * Contents are transient: nothing is carried in the scratch from one
//    call to the next, which is what lets many pipelines take turns on
//    one thread. Contents are unspecified on entry; kernels must fully
//    overwrite the range they request.
//  * There is one real scratch buffer: a kernel that takes it must not
//    call another kernel that takes it while it still reads its own
//    scratch (each kernel documents that it uses the workspace).
//  * The buffer only grows, to the largest request its thread has made,
//    so a thread's scratch is sized once, by its largest call, and never
//    per stream.

#pragma once

#include <cstddef>
#include <span>

#include "dsp/aligned.hpp"

namespace ptrack::dsp {

class Workspace {
 public:
  Workspace() = default;
  /// Copying yields a fresh, empty workspace: scratch contents are transient
  /// by contract, and sharing buffers across copies would alias.
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

/// The calling thread's workspace: the scratch every pipeline run on this
/// thread takes (see the ownership rules above).
[[nodiscard]] Workspace& thread_workspace();

}  // namespace ptrack::dsp
