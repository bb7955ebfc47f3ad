#include "runtime/batch_runner.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <thread>

#include "common/check.hpp"
#include "common/error.hpp"
#include "imu/trace_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::runtime {

std::string_view to_string(TraceError::Stage s) {
  switch (s) {
    case TraceError::Stage::Load:
      return "load";
    case TraceError::Stage::Process:
      return "process";
  }
  return "unknown";
}

namespace {

/// Threads to use for `requested` (0 = one per hardware thread).
std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::unique_ptr<Scheduler> make_owned_scheduler(const BatchOptions& opt) {
  if (opt.scheduler != nullptr) return nullptr;
  SchedulerOptions so;
  // `threads` counts the calling thread, the scheduler counts only spawned
  // workers.
  so.workers = resolve_threads(opt.threads) - 1;
  // ptrack-lint: allow(alloc) runner construction, amortized over every batch it runs
  return std::make_unique<Scheduler>(so);
}

}  // namespace

BatchRunner::BatchRunner(core::PTrackConfig cfg, BatchOptions opt)
    : cfg_(cfg),
      owned_(make_owned_scheduler(opt)),
      borrowed_(opt.scheduler),
      caller_participates_(opt.caller_participates) {}

std::vector<TraceResult> BatchRunner::run(
    const std::vector<imu::Trace>& traces) {
  std::vector<TraceResult> results(traces.size());
  if (traces.empty()) return results;

  PTRACK_OBS_SPAN("ptrack.runtime.batch");
  PTRACK_COUNT("ptrack.runtime.batch.runs");
  // The obs decision is latched once per batch so a mid-run toggle cannot
  // produce half-measured tasks, and the disabled path never reads clocks.
  const bool obs_on = obs::enabled();
  const std::uint64_t batch_start_ns = obs_on ? obs::now_ns() : 0;

  const std::size_t executors = threads();

  /// Per-executor busy-time accumulator, padded so executors on adjacent
  /// entries do not share a cache line.
  struct alignas(64) WorkerBusy {
    std::uint64_t ns = 0;
  };
  std::vector<WorkerBusy> busy(executors);

  // One pipeline for every executor: process() is stateless, and its
  // scratch is the executor thread's, so nothing is locked and buffer
  // capacities amortize across that thread's traces. Executor ids are
  // dense — scheduler workers [0, W) plus the calling thread at W — so
  // they index `busy` directly.
  const core::PTrack tracker(cfg_);
  sched().parallel_for(
      Lane::kThroughput, traces.size(),
      [&](std::size_t task, std::size_t executor) {
        PTRACK_CHECK_MSG(task < results.size() && executor < busy.size(),
                         "BatchRunner: task and executor indices in range");
        PTRACK_OBS_SPAN("ptrack.runtime.task");
        const std::uint64_t task_start_ns = obs_on ? obs::now_ns() : 0;
        // Exceptions are converted to values here, inside the task, so one
        // bad trace cannot poison the batch (parallel_for rethrows escaped
        // exceptions after the drain, which would abort the whole batch).
        try {
          results[task] = tracker.process(traces[task]);
        } catch (const std::exception& e) {
          results[task] = make_unexpected(
              TraceError{TraceError::Stage::Process,
                         "#" + std::to_string(task), e.what()});
        } catch (...) {
          results[task] = make_unexpected(
              TraceError{TraceError::Stage::Process,
                         "#" + std::to_string(task), "unknown exception"});
        }
        if (obs_on) {
          const std::uint64_t task_end_ns = obs::now_ns();
          // "Queue wait" at batch granularity: how long the trace sat
          // behind earlier traces before an executor picked it up. The
          // scheduler's own per-lane queue_wait histograms time the
          // individual claimer hops.
          PTRACK_HIST_US("ptrack.runtime.batch.queue_wait_us",
                         static_cast<double>(task_start_ns - batch_start_ns) /
                             1000.0);
          PTRACK_HIST_US("ptrack.runtime.batch.exec_us",
                         static_cast<double>(task_end_ns - task_start_ns) /
                             1000.0);
          busy[executor].ns += task_end_ns - task_start_ns;
        }
      },
      caller_participates_);
  if (obs_on) {
    const std::uint64_t batch_ns =
        std::max<std::uint64_t>(obs::now_ns() - batch_start_ns, 1);
    std::size_t ok = 0;
    for (const TraceResult& r : results) ok += r.has_value() ? 1 : 0;
    PTRACK_COUNT_N("ptrack.runtime.batch.traces_ok", ok);
    PTRACK_COUNT_N("ptrack.runtime.batch.traces_failed", results.size() - ok);
    auto& reg = obs::Registry::instance();
    reg.gauge("ptrack.runtime.batch.workers")
        .set(static_cast<double>(executors));
    for (std::size_t w = 0; w < busy.size(); ++w) {
      reg.gauge("ptrack.runtime.worker." + std::to_string(w) + ".utilization")
          .set(static_cast<double>(busy[w].ns) /
               static_cast<double>(batch_ns));
    }
  }
  // Deterministic batch contract: results come back positionally, slot i
  // holding trace i's result regardless of which executor ran it.
  PTRACK_CHECK_MSG(results.size() == traces.size(),
                   "BatchRunner: one result per input trace, in input order");
  return results;
}

// ptrack-lint: push-allow(alloc) directory loading is IO-bound batch setup, not a steady-state path
TraceDirListing load_trace_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw Error("load_trace_dir: not a directory: " + dir);
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".csv") {
      files.push_back(entry.path());
    }
  }
  if (ec) throw Error("load_trace_dir: cannot read " + dir + ": " + ec.message());
  std::sort(files.begin(), files.end());

  TraceDirListing out;
  out.traces.reserve(files.size());
  for (const fs::path& p : files) {
    std::string name = p.filename().string();
    try {
      out.traces.push_back({name, imu::load_csv(p.string())});
    } catch (const std::exception& e) {
      PTRACK_COUNT("ptrack.imu.load.errors");
      out.errors.push_back(
          {TraceError::Stage::Load, std::move(name), e.what()});
    }
  }
  // Directory iteration order is filesystem-dependent; the sort above is
  // what makes batch runs reproducible across machines.
  PTRACK_CHECK_MSG(std::is_sorted(out.traces.begin(), out.traces.end(),
                                  [](const NamedTrace& a, const NamedTrace& b) {
                                    return a.name < b.name;
                                  }),
                   "load_trace_dir: traces ordered by filename");
  return out;
}
// ptrack-lint: pop-allow(alloc)

}  // namespace ptrack::runtime
