// Two-lane task scheduler: the one compute substrate for PTrack's mixed
// load, streaming hops sharing cores with batch work (DESIGN.md §18).
//
//   * One mutex guards one FIFO per lane. Workers pop the latency FIFO
//     first, so a hop waits for at most the batch item already running,
//     and the oldest queued hop runs next.
//   * An idle worker spins on the shared queued-task count, then waits on
//     the one condvar. submit() notifies only a waiting worker; that count
//     shares the mutex with the queues, so no wake is lost.
//   * parallel_for() fans an index space out as self-resubmitting claimer
//     tasks, one index each, so workers re-check the latency lane between
//     batch items. Results are positional: BatchRunner stays
//     bit-deterministic at any pool size.
//
// Steady-state submission is allocation-free: each FIFO is a pre-sized
// circular buffer whose one growth site (doubling under the lock) is
// annotated for the alloc lint rule on runtime/*.cpp.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ptrack::runtime {

/// The two priority lanes of the scheduler. Latency work (streaming hops)
/// always drains before throughput work (batch traces).
enum class Lane : std::uint8_t { kLatency = 0, kThroughput = 1 };

inline constexpr std::size_t kLaneCount = 2;

[[nodiscard]] constexpr std::size_t lane_index(Lane lane) noexcept {
  return static_cast<std::size_t>(lane);
}

/// One unit of scheduled work: a function pointer plus context, so a queue
/// slot is POD and submission never allocates. `arg` is a free payload
/// word; `submit_ns` stamps submission for the queue-wait histograms (0
/// when telemetry is off, and then the pop side skips the clock too).
struct Task {
  void (*fn)(void* ctx, std::size_t executor, std::uint64_t arg) = nullptr;
  void* ctx = nullptr;
  std::uint64_t arg = 0;
  std::uint64_t submit_ns = 0;
};

/// Tasks each lane's FIFO holds before its first growth.
inline constexpr std::size_t kInitialQueueCapacity = 1024;

struct SchedulerOptions {
  /// Background worker threads. 0 is valid: submit() runs tasks inline on
  /// the submitting thread and parallel_for() degenerates to a serial
  /// loop (the single-core / baseline-bench configuration).
  std::size_t workers = 0;
};

/// Monotone scheduler event counts, readable at any time. Tests assert on
/// these; the same events feed the `ptrack.runtime.sched.*` metrics.
struct SchedulerStats {
  std::uint64_t submitted_latency = 0;
  std::uint64_t submitted_throughput = 0;
  std::uint64_t executed_latency = 0;
  std::uint64_t executed_throughput = 0;
  std::uint64_t inline_runs = 0;       ///< tasks run by submit() (0 workers)
  std::uint64_t parks = 0;             ///< waits on the condvar
  std::uint64_t wakeups = 0;           ///< notifies issued by submit()
  std::uint64_t task_exceptions = 0;   ///< exceptions swallowed at the loop
  /// Always 0: the shared queue neither steals nor spills. Kept until the
  /// end-to-end benchmark stops reading them (ROADMAP item 7).
  std::uint64_t steals = 0;
  std::uint64_t spills = 0;
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

  /// Enqueues one task at the back of `lane`'s FIFO (fire-and-forget;
  /// completion signalling is the task's business — see core::HopJob).
  /// With 0 workers the task runs inline here. Exceptions escaping a task
  /// are swallowed and counted (stats().task_exceptions). `affinity`
  /// places nothing; the end-to-end benchmark still passes it (ROADMAP 7).
  void submit(Lane lane, Task task, std::uint64_t affinity = 0);

  /// Runs fn(task, executor) for every task in [0, n_tasks) on `lane`,
  /// dynamically load-balanced; blocks until all completed. The calling
  /// thread participates as executor workers() unless
  /// `caller_participates` is false (dispatch-only: it seeds the claimers
  /// and waits, for threads with other duties); with 0 workers it always
  /// participates. The first exception (in completion order) is rethrown
  /// after the drain. Must not be called from this scheduler's workers.
  void parallel_for(Lane lane, std::size_t n_tasks, const TaskFn& fn,
                    bool caller_participates = true);

  [[nodiscard]] SchedulerStats stats() const;

 private:
  /// Circular FIFO of tasks, power-of-two capacity; guarded by mu_.
  struct Fifo {
    std::vector<Task> buf = std::vector<Task>(kInitialQueueCapacity);
    std::size_t head = 0;
    std::size_t size = 0;
    void push(const Task& task);  ///< doubles `buf` when full
    bool pop(Task& out);
  };

  void execute(const Task& t, std::size_t executor, Lane lane);
  void update_depth_gauges() const;
  void worker_loop(std::size_t w);

  std::size_t n_workers_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Fifo fifo_[kLaneCount];    ///< guarded by mu_
  std::size_t waiting_ = 0;  ///< workers in cv_.wait; guarded by mu_
  std::size_t wakes_ = 0;    ///< notifies no waiter took yet; guarded by mu_
  bool stop_ = false;        ///< guarded by mu_
  SchedulerStats st_;        ///< guarded by mu_
  /// Tasks in both FIFOs. Written only under mu_; read without it by
  /// spinning workers, which take the lock before acting on it.
  std::atomic<std::size_t> queued_{0};
  std::vector<std::thread> threads_;  ///< last: the workers use all above
};

}  // namespace ptrack::runtime
