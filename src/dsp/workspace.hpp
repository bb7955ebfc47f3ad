// Reusable scratch memory for the DSP kernels.
//
// The streaming tracker re-runs the full pipeline once per hop, and the
// batch runner pushes thousands of traces through it; without buffer reuse
// every window pays a fresh round of large allocations (FFT buffers,
// filtfilt padding, projection channels). A Workspace owns those buffers
// and the cached FFT twiddle tables so repeated calls run allocation-free
// once capacities have grown to the working-set size.
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
#include <complex>
#include <memory>
#include <vector>

#include "dsp/aligned.hpp"
#include "dsp/fft.hpp"

namespace ptrack::dsp {

class Workspace {
 public:
  static constexpr std::size_t kComplexSlots = 2;
  static constexpr std::size_t kRealSlots = 4;

  Workspace() = default;
  /// Copying yields a fresh, empty workspace: scratch contents are transient
  /// by contract, and sharing buffers across copies would alias. This keeps
  /// owners (e.g. core::PTrack) copyable.
  Workspace(const Workspace&) {}
  Workspace& operator=(const Workspace&) { return *this; }
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Scratch buffer of n complex values (resized, contents unspecified).
  /// All scratch storage is 64-byte aligned (see dsp/aligned.hpp) so
  /// SIMD kernels fed from workspace slots start on a cache-line boundary.
  AlignedVector<std::complex<double>>& complex_scratch(std::size_t slot,
                                                       std::size_t n);

  /// Scratch buffer of n doubles (resized, contents unspecified).
  AlignedVector<double>& real_scratch(std::size_t slot, std::size_t n);

  /// Twiddle tables for a power-of-two FFT size, built on first use and
  /// cached for the lifetime of the workspace. The returned reference stays
  /// valid until the workspace is destroyed.
  const FftPlan& fft_plan(std::size_t nfft);

 private:
  std::array<AlignedVector<std::complex<double>>, kComplexSlots> complex_;
  std::array<AlignedVector<double>, kRealSlots> real_;
  /// Few distinct sizes; linear lookup. unique_ptr keeps plan addresses
  /// stable across cache growth.
  std::vector<std::unique_ptr<FftPlan>> plans_;
};

}  // namespace ptrack::dsp
