// Off-thread hop execution for StreamingTracker — the core-side half of
// the mixed-load runtime (DESIGN.md §18).
//
// StreamingTracker is deliberately single-threaded ("drive it from one
// thread"). HopJob keeps that invariant while moving the hop work off the
// producer thread: the producer appends samples to a small mailbox and
// returns immediately; an executor drains the mailbox into the tracker and
// parks the confirmed events for poll_into(). At most ONE executor task
// per job is ever in flight (an atomic idle/scheduled/running/dirty state
// machine), so the tracker itself is still only ever touched by one thread
// at a time — the actor pattern. Which thread that is may change from hop
// to hop: the tracker's DSP scratch belongs to the executing thread, not
// the stream, so a hop's output does not depend on where it runs.
//
// Layering: core defines the HopExecutor port below and knows nothing of
// the runtime layer; runtime/hop_executor.hpp adapts the Scheduler's
// latency lane to it. Tests can drive a HopJob with a trivial inline
// executor.
//
// Threading contract: push()/poll_into()/flush()/wait_idle() are intended
// for ONE producer thread (matching the net-layer model of one session per
// connection); the executor may be any thread the scheduler picks. After
// wait_idle() returns, the producer thread may also read stats()/steps().

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <vector>

#include "core/streaming.hpp"

namespace ptrack::core {

class HopJob;

/// Port through which a HopJob schedules its hop onto an executor. May run
/// the job inline (a valid degenerate executor); must invoke it exactly
/// once per submit, and must not drop it.
class HopExecutor {
 public:
  virtual ~HopExecutor() = default;

  /// Schedules job.run_scheduled(executor_index) to run soon. `affinity`
  /// is a stable per-stream token that no executor in this repository
  /// uses; it stays until the end-to-end benchmark's executor stops
  /// overriding this signature (ROADMAP item 7).
  virtual void submit(HopJob& job, std::uint64_t affinity) = 0;
};

/// An actor wrapping one StreamingTracker: samples in via a mailbox, hops
/// run on the executor, confirmed events out via poll_into().
class HopJob {
 public:
  /// `stream_id` is passed to the executor as its affinity token.
  /// `executor` must outlive this job.
  HopJob(HopExecutor& executor, std::uint64_t stream_id, double fs,
         StreamingConfig config = {});

  /// Blocks until the job is idle (all pushed samples processed), then
  /// tears down. Any captured hop error is swallowed here — check
  /// wait_idle() first if you care.
  ~HopJob();

  HopJob(const HopJob&) = delete;
  HopJob& operator=(const HopJob&) = delete;

  /// Enqueues one sample and ensures a hop task is scheduled. O(1) append;
  /// never blocks on the tracker.
  void push(const imu::Sample& sample);

  /// Enqueues a whole trace. Throws InvalidArgument on a sample-rate
  /// mismatch (same contract as StreamingTracker::push(Trace)).
  void push(const imu::Trace& trace);

  /// Appends events confirmed so far to `out` (chronological; each event
  /// exactly once). Does not wait: events still being computed arrive on a
  /// later poll.
  void poll_into(std::vector<StepEvent>& out);

  /// Blocks until every pushed sample has been processed and no task is
  /// scheduled or running. Rethrows the first error a hop captured (once;
  /// the job is unusable after an error).
  void wait_idle();

  /// wait_idle(), then flushes the tracker's finalization margins on the
  /// calling thread, appending the final events to `out` (after all
  /// already-confirmed events). Mirrors StreamingTracker::drain_into.
  void drain_into(std::vector<StepEvent>& out);

  [[nodiscard]] std::uint64_t stream_id() const { return stream_id_; }

  /// Hop tasks completed (monotone; readable from any thread).
  [[nodiscard]] std::uint64_t runs_completed() const {
    return runs_completed_.load(std::memory_order_relaxed);
  }

  /// Tracker statistics. Only meaningful when the job is idle (call after
  /// wait_idle()); the tracker is the executor's to touch otherwise.
  [[nodiscard]] StreamingStats stats() const { return tracker_.stats(); }

  /// Executor-side entry point — called exactly once per HopExecutor
  /// submit, on whatever thread the executor picked. Not part of the
  /// producer API. The executor index is unread; the parameter stays
  /// because the end-to-end benchmark's executor passes one.
  void run_scheduled(std::size_t executor);

 private:
  enum State : int {
    kIdle = 0,       ///< no task queued or running, mailbox drained
    kScheduled = 1,  ///< a task is queued with the executor
    kRunning = 2,    ///< a task is draining the mailbox
    kRunningDirty = 3,  ///< running, and new samples arrived since drain
  };

  void ensure_scheduled();

  HopExecutor& executor_;
  const std::uint64_t stream_id_;

  std::mutex in_mu_;
  std::vector<imu::Sample> inbox_;    ///< producer -> executor mailbox
  std::vector<imu::Sample> scratch_;  ///< executor-side drain buffer

  std::mutex out_mu_;
  std::vector<StepEvent> ready_;  ///< confirmed events awaiting poll

  StreamingTracker tracker_;  ///< executor-owned while not idle

  std::atomic<int> state_{kIdle};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  std::mutex err_mu_;
  std::exception_ptr error_;  ///< first hop error; guarded by err_mu_

  std::atomic<std::uint64_t> runs_completed_{0};
};

}  // namespace ptrack::core
