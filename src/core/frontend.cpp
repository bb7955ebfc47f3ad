#include "core/frontend.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/error.hpp"
#include "dsp/butterworth.hpp"

namespace ptrack::core {

namespace {

constexpr std::size_t kL = dsp::simd::kIirLanes;

/// Row i of the interleaved filter layout: (v, a, 0, 0). The unused lanes
/// are zeroed so stale scratch cannot drive the recurrence through
/// denormals.
void set_row(double* rows, std::size_t i, double v, double a) {
  double* row = rows + i * kL;
  row[0] = v;
  row[1] = a;
  for (std::size_t c = 2; c < kL; ++c) row[c] = 0.0;
}

}  // namespace

std::size_t grid_block(double fs) {
  expects(fs > 0.0, "grid_block: fs > 0");
  return std::max<std::size_t>(16, static_cast<std::size_t>(std::lround(fs)));
}

dsp::BiquadCascade output_lowpass(double lowpass_hz, double fs) {
  return dsp::butterworth_lowpass(4, std::min(lowpass_hz, 0.45 * fs), fs);
}

GridLowpass::GridLowpass(double lowpass_hz, double fs) {
  expects(fs > 0.0 && lowpass_hz > 0.0, "GridLowpass: fs, lowpass_hz > 0");
  const dsp::BiquadCascade cascade = output_lowpass(lowpass_hz, fs);
  nsec_ = cascade.sections().size();
  for (std::size_t s = 0; s < nsec_; ++s) {
    sections_[s] = cascade.sections()[s].coeffs();
  }
}

void GridLowpass::forward_appended(std::size_t n, dsp::Workspace& ws) {
  PTRACK_CHECK_MSG(n <= end() && pre_a_.end() == end(),
                   "GridLowpass: both channels appended alike");
  const std::size_t b = end() - n;
  const std::span<const double> vertical = pre_v_.span(b, end());
  const std::span<const double> anterior = pre_a_.span(b, end());
  // ptrack-lint: allow(alloc) rows are trimmed as they finalize
  rows_.resize(rows_.size() + n * kL);
  double* rows = row(b);
  for (std::size_t i = 0; i < n; ++i) {
    set_row(rows, i, vertical[i], anterior[i]);
  }
  if (started_) {
    forward(b);
  } else if (end() > kLowpassPad) {
    start(kLowpassPad, ws);
  }
}

void GridLowpass::start(std::size_t pad, dsp::Workspace& ws) {
  const std::size_t n = end();
  PTRACK_CHECK_MSG(pre_v_.base() == 0 && rows_base_ == 0 && pad < n,
                   "GridLowpass: left pad inside the retained signal");
  const std::span<const double> v = pre_v_.span(0, n);
  const std::span<const double> a = pre_a_.span(0, n);
  // The odd reflection about the first sample, then every sample so far.
  double* rows = ws.real_scratch(pad * kL).data();
  for (std::size_t i = 0; i < pad; ++i) {
    set_row(rows, i, 2.0 * v[0] - v[pad - i], 2.0 * a[0] - a[pad - i]);
  }
  state_.fill(0.0);
  dsp::simd::cascade_multi({sections_.data(), nsec_}, rows, pad, false,
                           state_.data());
  started_ = true;
  forward(0);
}

void GridLowpass::forward(std::size_t b) {
  PTRACK_CHECK_MSG(started_ && rows_base_ <= b && b <= end(),
                   "GridLowpass: forward rows retained");
  dsp::simd::cascade_multi({sections_.data(), nsec_}, row(b), end() - b,
                           false, state_.data());
  trim_inputs();
}

void GridLowpass::finalize(std::size_t upto, dsp::Workspace& ws) {
  PTRACK_CHECK_MSG(upto <= end(), "GridLowpass: finalized range appended");
  const std::size_t from = requested_end();
  if (!started_ || upto <= from) return;
  const Pass pass{from, end(), upto, state_};
  if (!pending_) {
    pass_ = pass;
    pending_ = true;
    return;
  }
  const std::array<Pass, 2> both{pass_, pass};
  pending_ = false;
  run(both, ws);
}

void GridLowpass::run_passes(dsp::Workspace& ws) {
  if (!pending_) return;
  pending_ = false;
  run({&pass_, 1}, ws);
}

void GridLowpass::run(std::span<const Pass> passes, dsp::Workspace& ws) {
  // Pass i runs in lanes 2i and 2i + 1; every pass ends at the buffer's
  // end, and a shorter one's leading rows stay zero in its lanes.
  const auto pad_of = [](const Pass& p) {
    return std::min(kLowpassPad, p.at - 1);
  };
  const std::size_t pad = pad_of(passes[0]);
  std::size_t len = 0;
  for (const Pass& p : passes) {
    PTRACK_CHECK_MSG(pad_of(p) == pad && p.from < p.upto && p.upto <= p.at,
                     "GridLowpass: paired passes share one pad");
    len = std::max(len, p.at - p.from + pad);
  }
  double* rows = ws.real_scratch(len * kL).data();
  State state{};
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t lane = 2 * i;
    if (i >= passes.size()) {
      // A lone pass: the other lane pair stays zero.
      for (std::size_t r = 0; r < len; ++r) {
        rows[r * kL + lane] = 0.0;
        rows[r * kL + lane + 1] = 0.0;
      }
      continue;
    }
    const Pass& p = passes[i];
    const std::size_t lead = len - (p.at - p.from + pad);
    for (std::size_t r = 0; r < lead; ++r) {
      rows[r * kL + lane] = 0.0;
      rows[r * kL + lane + 1] = 0.0;
    }
    double* first = rows + lead * kL;
    const double* fwd = row(p.from);
    for (std::size_t r = 0; r < p.at - p.from; ++r) {
      first[r * kL + lane] = fwd[r * kL];
      first[r * kL + lane + 1] = fwd[r * kL + 1];
    }
    // The odd reflection about the pass's newest sample.
    const std::span<const double> v = pre_v_.span(p.at - pad - 1, p.at);
    const std::span<const double> a = pre_a_.span(p.at - pad - 1, p.at);
    double* tail = rows + (len - pad) * kL;
    for (std::size_t k = 1; k <= pad; ++k) {
      tail[(k - 1) * kL + lane] = 2.0 * v[pad] - v[pad - k];
      tail[(k - 1) * kL + lane + 1] = 2.0 * a[pad] - a[pad - k];
    }
    for (std::size_t r = 0; r < state.size(); r += kL) {
      state[r + lane] = p.state[r];
      state[r + lane + 1] = p.state[r + 1];
    }
  }
  // The forward pass continued over the pads, then the zero-state backward
  // pass over everything.
  dsp::simd::cascade_multi({sections_.data(), nsec_}, rows + (len - pad) * kL,
                           pad, false, state.data());
  dsp::simd::cascade_multi({sections_.data(), nsec_}, rows, len, true);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    const double* first = rows + (len - (p.at - p.from + pad)) * kL;
    const std::span<double> v = vert_.extend(p.upto - p.from);
    const std::span<double> a = ant_.extend(p.upto - p.from);
    for (std::size_t r = 0; r < v.size(); ++r) {
      v[r] = first[r * kL + 2 * i];
      a[r] = first[r * kL + 2 * i + 1];
    }
  }
  trim_inputs();
}

void GridLowpass::trim_inputs() {
  // A pass reads forward rows from where it finalizes and the last
  // kLowpassPad + 1 appended samples before where it starts.
  const std::size_t at = pending_ ? pass_.at : end();
  const std::size_t keep = at > kLowpassPad ? at - kLowpassPad - 1 : 0;
  pre_v_.trim_to(keep);
  pre_a_.trim_to(keep);
  // Forward rows from where the next pass finalizes; storage slides (one
  // erase) once the dead prefix outgrows the live rows, as in Ring.
  const std::size_t from = pending_ ? pass_.from : final_end();
  PTRACK_CHECK_MSG(rows_base_ <= from,
                   "GridLowpass: rows retained from the next pass on");
  if (!started_ || from == rows_base_) return;
  const std::size_t dead = (from - rows_base_) * kL;
  if (dead > rows_.size() - dead) {
    rows_.erase(rows_.begin(), rows_.begin() + static_cast<std::ptrdiff_t>(dead));
    rows_base_ = from;
  }
}

void GridLowpass::flush(dsp::Workspace& ws) {
  if (!started_ && end() > 0) start(std::min(kLowpassPad, end() - 1), ws);
  finalize(end(), ws);
  run_passes(ws);
}

void GridLowpass::trim_output(std::size_t new_base) {
  vert_.trim_to(new_base);
  ant_.trim_to(new_base);
}

}  // namespace ptrack::core
