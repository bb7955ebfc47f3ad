// Work-stealing scheduler with two priority lanes — the one compute
// substrate for both of PTrack's workload shapes (DESIGN.md §18).
//
// The deployment story is mixed-load: latency-sensitive streaming hops
// (a connected wearable's next 2 s of samples) sharing cores with
// throughput batch jobs (self-training profile rebuilds, cohort sweeps).
// A homogeneous fork-join pool head-of-line-blocks the hops whenever a
// batch saturates; this scheduler removes that by construction:
//
//   * Two lanes. Every worker drains its latency work (own ring, shared
//     spill, then stolen) before it looks at any throughput work. A hop
//     submitted during a saturating batch waits for at most the batch
//     item currently executing, never for the queue behind it.
//   * Per-worker bounded lock-free rings (runtime/worker.hpp), steal-half
//     victim selection: an idle worker takes half of a random victim's
//     ring in one pass, runs one task and re-homes the rest, so imbalance
//     halves per steal instead of migrating one task at a time.
//   * Bounded spin then park. An idle worker spins a few thousand
//     iterations watching the pending counters (covers the common
//     hop-every-few-ms cadence without syscalls), then parks on its own
//     condvar. Submission wakes the affinity-preferred worker first so a
//     stream's hops keep landing on the worker whose cache holds its
//     SampleRing.
//   * Deterministic fork-join on top: parallel_for() fans an index space
//     across the workers via self-resubmitting claimer tasks — each
//     claims ONE index, runs it, and resubmits itself, so the worker loop
//     re-checks the latency lane between every batch item. Results are
//     positional, so BatchRunner's bit-determinism contract survives
//     unchanged, as do the PR-2 exception semantics (first exception in
//     completion order, rethrown after the drain).
//
// Steady-state submission, claiming and stealing are allocation-free
// (rings are pre-sized in constructors; the only allocating path is the
// counted spill fallback when a ring overflows) — enforced by the alloc
// lint rule covering runtime/*.cpp.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/worker.hpp"

namespace ptrack::runtime {

/// "No placement preference" for submit(); the task round-robins.
inline constexpr std::uint64_t kNoAffinity = ~std::uint64_t{0};

struct SchedulerOptions {
  /// Background worker threads. 0 is valid: submit() runs tasks inline on
  /// the submitting thread and parallel_for() degenerates to a serial
  /// loop (the single-core / baseline-bench configuration).
  std::size_t workers = 0;
};

/// Monotone scheduler event counts, readable at any time (relaxed; exact
/// once workers are quiescent). Tests assert on these; the same events
/// feed the `ptrack.runtime.sched.*` metrics.
struct SchedulerStats {
  std::uint64_t submitted_latency = 0;
  std::uint64_t submitted_throughput = 0;
  std::uint64_t executed_latency = 0;
  std::uint64_t executed_throughput = 0;
  std::uint64_t inline_runs = 0;       ///< tasks run by submit() (0 workers)
  std::uint64_t steals = 0;            ///< tasks migrated by steal-half
  std::uint64_t steal_batches = 0;     ///< steal-half passes that got >= 1
  std::uint64_t parks = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t spills = 0;            ///< ring-full fallbacks
  std::uint64_t task_exceptions = 0;   ///< exceptions swallowed at the loop
};

class Scheduler {
 public:
  /// parallel_for body: (task_index, executor_index). Executor indices:
  /// worker threads are [0, workers()); the calling thread participates
  /// as executor workers().
  using TaskFn = std::function<void(std::size_t, std::size_t)>;

  explicit Scheduler(SchedulerOptions opts = {});

  /// Signals stop, wakes and joins every worker. Queued tasks still run
  /// (workers drain on the way out; contexts must outlive the scheduler).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] std::size_t workers() const { return n_workers_; }
  /// Executor index parallel_for() reports for the calling thread.
  [[nodiscard]] std::size_t caller_executor() const { return n_workers_; }

  /// Enqueues one task (fire-and-forget; completion signalling is the
  /// task's business — see core::HopJob). `affinity` pins the task to
  /// worker `affinity % workers()`'s ring; submission is wait-free apart
  /// from the rare ring-overflow spill. With 0 workers the task runs
  /// inline here. Exceptions escaping a task are swallowed and counted
  /// (stats().task_exceptions) — tasks own their error channel.
  void submit(Lane lane, Task task, std::uint64_t affinity = kNoAffinity);

  /// Runs fn(task, executor) for every task in [0, n_tasks) on `lane`,
  /// dynamically load-balanced; blocks until all completed. The calling
  /// thread participates as executor workers(). If any task throws, the
  /// first exception (in completion order) is rethrown here after the
  /// drain. Must not be called from this scheduler's own worker threads.
  ///
  /// `caller_participates = false` makes the call dispatch-only: the
  /// caller seeds the claimers and then just waits, donating no CPU — for
  /// threads with other duties (a daemon control thread fanning out a
  /// rebuild). Ignored with 0 workers, where the caller is the only
  /// executor there is.
  void parallel_for(Lane lane, std::size_t n_tasks, const TaskFn& fn,
                    bool caller_participates = true);

  [[nodiscard]] SchedulerStats stats() const;

 private:
  struct ParallelJob;

  static void claimer_trampoline(void* ctx, std::size_t executor,
                                 std::uint64_t arg);
  void claim_inline(ParallelJob& job, std::size_t executor);

  bool find_task(std::size_t self, Task& out, Lane& lane_out);
  bool pop_spill(Lane lane, Task& out);
  bool steal_half(std::size_t self, Lane lane, Task& out);
  void execute(const Task& t, std::size_t executor, Lane lane);
  bool try_wake(std::size_t w);
  void wake_one(std::size_t preferred);
  void update_depth_gauges();
  void worker_loop(std::size_t w);

  std::size_t n_workers_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::size_t> rr_{0};  ///< round-robin cursor (no affinity)

  /// Tasks currently queued (rings + spill) per lane; the seq_cst
  /// handshake between submitters and parking workers (see worker.hpp).
  alignas(64) std::atomic<std::size_t> pending_[kLaneCount] = {};

  std::mutex spill_mu_[kLaneCount];
  std::deque<Task> spill_[kLaneCount];
  std::atomic<std::size_t> spill_count_[kLaneCount] = {};

  std::atomic<bool> stop_{false};

  struct InternalStats {
    std::atomic<std::uint64_t> submitted[kLaneCount] = {};
    std::atomic<std::uint64_t> executed[kLaneCount] = {};
    std::atomic<std::uint64_t> inline_runs{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> steal_batches{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> wakeups{0};
    std::atomic<std::uint64_t> spills{0};
    std::atomic<std::uint64_t> task_exceptions{0};
  };
  InternalStats st_;
};

}  // namespace ptrack::runtime
