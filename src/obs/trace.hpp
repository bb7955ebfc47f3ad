// RAII stage spans with Chrome-trace export.
//
// An ObsSpan records a begin event at construction and an end event at
// destruction into a per-thread ring buffer (no locks, no allocation on
// the hot path; span names must be string literals so only the pointer is
// stored). write_chrome_trace() serializes every thread's ring as Chrome
// `trace_event` JSON ("B"/"E" phase pairs), loadable in chrome://tracing
// and Perfetto.
//
// Concurrency contract: pushing spans is wait-free and per-thread.
// Exporting (write_chrome_trace) and reset_trace() must only run while
// span-producing threads are quiescent AND a happens-before edge exists
// from their last span to the exporting thread — a thread join, or the
// end of a Scheduler::parallel_for (workers release via the job's done and
// outstanding counters that the caller acquires). The CLI exports after
// BatchRunner::run returned, which satisfies both.
//
// Ring wrap: a thread that produces more than kRingCapacity events between
// exports overwrites its oldest ones. The exporter re-balances what is
// left (an end whose begin was overwritten is dropped, as is a begin whose
// end never landed), so the emitted file always contains matched pairs.

#pragma once

#include <cstdint>
#include <iosfwd>

#include "obs/metrics.hpp"

namespace ptrack::obs {

/// Nanoseconds since the process's trace epoch (first call), from the
/// steady clock.
std::uint64_t now_ns();

/// Scoped stage timer. `name` MUST be a string literal (or otherwise
/// outlive the export) — only the pointer is recorded.
class ObsSpan {
 public:
  explicit ObsSpan(const char* name);
  ~ObsSpan();
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  const char* name_;  ///< null when obs was disabled at construction
};

/// Sequential lap timer for filling per-trace timing blocks. Zero-cost
/// (and returning zeros) when obs is disabled at construction.
class StageTimer {
 public:
  StageTimer();
  /// Microseconds since construction or the previous lap.
  double lap_us();

 private:
  std::uint64_t last_ = 0;
  bool active_ = false;
};

/// Serializes every thread's span ring as one Chrome trace_event JSON
/// document. See the concurrency contract above.
void write_chrome_trace(std::ostream& os);

/// Drops all buffered span events (tests/benches). Same concurrency
/// contract as write_chrome_trace.
void reset_trace();

}  // namespace ptrack::obs

/// Opens a span covering the rest of the enclosing scope.
#define PTRACK_OBS_SPAN(name_)                                       \
  [[maybe_unused]] const ::ptrack::obs::ObsSpan PTRACK_OBS_CAT_(     \
      ptrack_obs_span_, __LINE__)(name_)
