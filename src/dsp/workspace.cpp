#include "dsp/workspace.hpp"

#include "common/check.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace ptrack::dsp {

namespace {

// Slot-aliasing contract: a kernel that requests two distinct slots must get
// two disjoint allocations, or composed kernels would silently clobber each
// other's scratch. Cheap pointer-disjointness sweep over the slot array.
template <typename Buffers>
void check_slots_disjoint(const Buffers& buffers, std::size_t slot) {
  for (std::size_t other = 0; other < buffers.size(); ++other) {
    if (other == slot) continue;
    PTRACK_CHECK_MSG(buffers[slot].empty() || buffers[other].empty() ||
                         buffers[slot].data() != buffers[other].data(),
                     "Workspace: scratch slots never alias");
  }
}

}  // namespace

AlignedVector<std::complex<double>>& Workspace::complex_scratch(
    std::size_t slot, std::size_t n) {
  expects(slot < kComplexSlots, "Workspace::complex_scratch: valid slot");
  auto& buf = complex_[slot];
  // ptrack-lint: allow(alloc) workspace scratch; steady capacity
  buf.resize(n);
  check_slots_disjoint(complex_, slot);
  return buf;
}

AlignedVector<double>& Workspace::real_scratch(std::size_t slot,
                                               std::size_t n) {
  expects(slot < kRealSlots, "Workspace::real_scratch: valid slot");
  auto& buf = real_[slot];
  // ptrack-lint: allow(alloc) workspace scratch; steady capacity
  buf.resize(n);
  check_slots_disjoint(real_, slot);
  return buf;
}

const FftPlan& Workspace::fft_plan(std::size_t nfft) {
  expects(nfft >= 1 && (nfft & (nfft - 1)) == 0,
          "Workspace::fft_plan: size is a power of two");
  for (const auto& p : plans_) {
    if (p->n == nfft) {
      PTRACK_COUNT("ptrack.dsp.fft_plan.hits");
      return *p;
    }
  }
  PTRACK_COUNT("ptrack.dsp.fft_plan.misses");
  // ptrack-lint: allow(alloc) first-use plan construction; cached forever
  plans_.push_back(std::make_unique<FftPlan>(make_fft_plan(nfft)));
  // Plans are cached by exact size and never evicted: one entry per size.
  PTRACK_CHECK_MSG(plans_.back()->n == nfft,
                   "Workspace::fft_plan: cache entry matches requested size");
  return *plans_.back();
}

}  // namespace ptrack::dsp
