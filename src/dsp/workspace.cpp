#include "dsp/workspace.hpp"

namespace ptrack::dsp {

std::span<double> Workspace::real_scratch(std::size_t n) {
  if (n > real_.size()) {
    // ptrack-lint: allow(alloc) grow-only workspace scratch; steady capacity
    real_.resize(n);
  }
  return {real_.data(), n};
}

Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace ptrack::dsp
