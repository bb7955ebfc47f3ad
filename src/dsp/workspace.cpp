#include "dsp/workspace.hpp"

#include "common/check.hpp"
#include "common/error.hpp"

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

AlignedVector<double>& Workspace::real_scratch(std::size_t slot,
                                               std::size_t n) {
  expects(slot < kRealSlots, "Workspace::real_scratch: valid slot");
  auto& buf = real_[slot];
  // ptrack-lint: allow(alloc) workspace scratch; steady capacity
  buf.resize(n);
  check_slots_disjoint(real_, slot);
  return buf;
}

}  // namespace ptrack::dsp
