#include "runtime/scheduler.hpp"

#include <algorithm>
#include <exception>

#include "common/check.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::runtime {

namespace {

/// Identifies the scheduler whose worker loop owns the current thread, so
/// parallel_for() can reject the call shape that deadlocks (a worker
/// blocking on a job only its own pool can finish).
thread_local const Scheduler* tl_worker_of = nullptr;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

static_assert((kInitialQueueCapacity & (kInitialQueueCapacity - 1)) == 0,
              "a lane FIFO's capacity is a power of two");

/// Idle spins on the queued-task count before waiting on the condvar.
constexpr std::uint32_t kSpinIterations = 4000;

/// One parallel_for call, on the caller's stack.
struct ParallelJob {
  Scheduler* sched = nullptr;
  const Scheduler::TaskFn* fn = nullptr;
  Lane lane = Lane::kThroughput;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  /// Claimer tasks alive in queues or executing; the caller also waits for
  /// this to reach 0, so no queued claimer outlives the stack job.
  std::atomic<std::size_t> outstanding{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  ///< first in completion order; guarded by mu
};

/// Claims and runs one index of `job`; false once the index space is spent.
bool claim_one(ParallelJob& job, std::size_t executor) {
  const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
  if (i >= job.n) return false;
  try {
    (*job.fn)(i, executor);
  } catch (...) {
    std::lock_guard<std::mutex> lk(job.mu);
    if (!job.error) job.error = std::current_exception();
  }
  const std::size_t completed =
      job.done.fetch_add(1, std::memory_order_acq_rel) + 1;
  PTRACK_CHECK_MSG(completed <= job.n,
                   "Scheduler: completions never exceed the task count");
  if (completed == job.n) {
    std::lock_guard<std::mutex> lk(job.mu);
    job.cv.notify_all();
  }
  return true;
}

void claimer_trampoline(void* ctx, std::size_t executor, std::uint64_t) {
  auto& job = *static_cast<ParallelJob*>(ctx);
  if (claim_one(job, executor) &&
      job.next.load(std::memory_order_relaxed) < job.n) {
    // Resubmit instead of looping: the worker loop re-checks the latency
    // lane between consecutive batch items, which is the whole
    // anti-head-of-line-blocking mechanism.
    job.sched->submit(job.lane, Task{&claimer_trampoline, &job, 0, 0});
    return;
  }
  // This claimer retires. The caller frees the job once it sees
  // outstanding == 0 under job.mu, so decrement under that lock too: the
  // job must outlive this claimer's last touch of its mutex and condvar.
  std::lock_guard<std::mutex> lk(job.mu);
  if (job.outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    job.cv.notify_all();
  }
}

}  // namespace

void Scheduler::Fifo::push(const Task& task) {
  if (size == buf.size()) {
    // Unwrap on growth: the part before head moves behind the old end, so
    // the queue stays contiguous from head in the doubled buffer.
    const std::size_t old_cap = buf.size();
    // ptrack-lint: allow(alloc) doubles only when a backlog outgrows the pre-sized FIFO; the capacity is kept, so a steady state never grows
    buf.resize(2 * old_cap);
    std::copy_n(buf.begin(), head, buf.begin() + old_cap);
  }
  buf[(head + size) & (buf.size() - 1)] = task;
  ++size;
}

bool Scheduler::Fifo::pop(Task& out) {
  if (size == 0) return false;
  out = buf[head];
  head = (head + 1) & (buf.size() - 1);
  --size;
  return true;
}

Scheduler::Scheduler(SchedulerOptions opts) : n_workers_(opts.workers) {
  expects(n_workers_ <= 4096, "Scheduler: implausible worker count");
  if (obs::enabled()) {
    obs::Registry::instance()
        .gauge("ptrack.runtime.sched.workers")
        .set(static_cast<double>(n_workers_));
  }
  threads_.reserve(n_workers_);
  for (std::size_t w = 0; w < n_workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // A worker leaves only once both FIFOs are empty, so every queued task
  // (including any a running task submits) runs before the joins return.
  for (std::thread& t : threads_) t.join();
}

void Scheduler::submit(Lane lane, Task task, std::uint64_t /*affinity*/) {
  expects(task.fn != nullptr, "Scheduler::submit: task.fn required");
  if (n_workers_ > 0 && obs::enabled()) task.submit_ns = obs::now_ns();
  std::unique_lock<std::mutex> lk(mu_);
  if (lane == Lane::kLatency) {
    ++st_.submitted_latency;
    PTRACK_COUNT("ptrack.runtime.sched.submitted.latency");
  } else {
    ++st_.submitted_throughput;
    PTRACK_COUNT("ptrack.runtime.sched.submitted.throughput");
  }
  if (n_workers_ == 0) {
    // Degenerate single-threaded configuration: run inline, preserving the
    // "executor 0 == submitting thread" convention (caller_executor() == 0).
    ++st_.inline_runs;
    lk.unlock();
    execute(task, /*executor=*/0, lane);
    return;
  }
  fifo_[lane_index(lane)].push(task);
  queued_.fetch_add(1, std::memory_order_relaxed);
  update_depth_gauges();
  // Notify only while some waiting worker holds no wake yet, so a burst of
  // submits wakes distinct sleepers instead of one sleeper over and over.
  if (waiting_ == wakes_) return;
  ++wakes_;
  ++st_.wakeups;
  lk.unlock();
  cv_.notify_one();
  PTRACK_COUNT("ptrack.runtime.sched.wakeups");
}

void Scheduler::execute(const Task& t, std::size_t executor, Lane lane) {
  const bool timed = t.submit_ns != 0 && obs::enabled();
  const std::uint64_t start = timed ? obs::now_ns() : 0;
  bool threw = false;
  try {
    t.fn(t.ctx, executor, t.arg);
  } catch (...) {
    // Tasks own their error channel (HopJob, claimers); one reaching here
    // is a contract breach, counted, not fatal.
    threw = true;
    PTRACK_COUNT("ptrack.runtime.sched.task_exceptions");
  }
  if (timed) {
    const double wait_us = static_cast<double>(start - t.submit_ns) / 1000.0;
    const double exec_us =
        static_cast<double>(obs::now_ns() - start) / 1000.0;
    if (lane == Lane::kLatency) {
      PTRACK_HIST_US("ptrack.runtime.sched.latency.queue_wait_us", wait_us);
      PTRACK_HIST_US("ptrack.runtime.sched.latency.exec_us", exec_us);
    } else {
      PTRACK_HIST_US("ptrack.runtime.sched.throughput.queue_wait_us",
                     wait_us);
      PTRACK_HIST_US("ptrack.runtime.sched.throughput.exec_us", exec_us);
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++(lane == Lane::kLatency ? st_.executed_latency : st_.executed_throughput);
  if (threw) ++st_.task_exceptions;
}

void Scheduler::update_depth_gauges() const {
  if (!obs::enabled()) return;
  static obs::Gauge& g_lat =
      obs::Registry::instance().gauge("ptrack.runtime.sched.depth.latency");
  static obs::Gauge& g_thr = obs::Registry::instance().gauge(
      "ptrack.runtime.sched.depth.throughput");
  g_lat.set(static_cast<double>(fifo_[lane_index(Lane::kLatency)].size));
  g_thr.set(static_cast<double>(fifo_[lane_index(Lane::kThroughput)].size));
}

void Scheduler::worker_loop(std::size_t w) {
  tl_worker_of = this;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Lane priority is absolute: no throughput task is taken while the
    // latency FIFO holds one.
    const Lane lane = fifo_[lane_index(Lane::kLatency)].size != 0
                          ? Lane::kLatency
                          : Lane::kThroughput;
    Task t;
    if (fifo_[lane_index(lane)].pop(t)) {
      queued_.fetch_sub(1, std::memory_order_relaxed);
      lk.unlock();
      execute(t, w, lane);
      lk.lock();
      continue;
    }
    if (stop_) break;

    // Bounded spin on the queued-task count before a futex round trip. A
    // task shows up while its submitter still holds mu_, so take the lock
    // by try_lock here: blocking would add a futex sleep and wake.
    lk.unlock();
    for (std::uint32_t i = 0; i < kSpinIterations; ++i) {
      if (queued_.load(std::memory_order_relaxed) != 0 && lk.try_lock()) break;
      cpu_relax();
    }
    if (!lk.owns_lock()) lk.lock();
    if (queued_.load(std::memory_order_relaxed) != 0 || stop_) continue;

    // A submit either ran before the check above (its task was seen) or
    // runs once the wait releases mu_, and then finds this worker waiting.
    ++waiting_;
    ++st_.parks;
    PTRACK_COUNT("ptrack.runtime.sched.parks");
    update_depth_gauges();
    cv_.wait(lk, [this] { return wakes_ > 0 || stop_; });
    --waiting_;
    if (wakes_ > 0) --wakes_;
  }
  tl_worker_of = nullptr;
}

void Scheduler::parallel_for(Lane lane, std::size_t n_tasks,
                             const TaskFn& fn, bool caller_participates) {
  if (n_tasks == 0) return;
  check(tl_worker_of != this,
        "Scheduler::parallel_for: must not be called from this scheduler's "
        "own worker threads (deadlock)");

  ParallelJob job;
  job.sched = this;
  job.fn = &fn;
  job.lane = lane;
  job.n = n_tasks;

  // One claimer seeded per worker (fewer if the index space is smaller).
  const std::size_t seeds = std::min(n_tasks, n_workers_);
  job.outstanding.store(seeds, std::memory_order_relaxed);
  for (std::size_t w = 0; w < seeds; ++w) {
    submit(lane, Task{&claimer_trampoline, &job, 0, 0});
  }

  // The calling thread participates as executor workers() — with zero
  // workers this loop IS the whole job, run strictly inline and in order,
  // so participation is not optional there.
  if (caller_participates || n_workers_ == 0) {
    while (claim_one(job, caller_executor())) {
    }
  }

  {
    std::unique_lock<std::mutex> lk(job.mu);
    job.cv.wait(lk, [&] {
      return job.done.load(std::memory_order_acquire) == job.n &&
             job.outstanding.load(std::memory_order_acquire) == 0;
    });
  }
  PTRACK_CHECK_MSG(job.next.load(std::memory_order_acquire) >= job.n,
                   "Scheduler::parallel_for: claim counter consumed every "
                   "index");
  if (job.error) std::rethrow_exception(job.error);
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return st_;
}

}  // namespace ptrack::runtime
