#include "runtime/scheduler.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <thread>

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

/// Steal-half transfer cap: bounds the thief's stack buffer (keeps the
/// steal allocation-free) and the latency-lane delay a single steal pass
/// can introduce.
constexpr std::size_t kStealMax = 16;

/// Per-worker per-lane ring capacity (a power of two). Overflow goes to
/// the mutex-protected spill queue — counted, never dropped.
constexpr std::size_t kQueueCapacity = 2048;
static_assert(kQueueCapacity >= 2, "a worker ring holds at least 2 tasks");

/// Idle iterations a worker spins watching the pending counters before
/// parking on its condvar. Covers sub-millisecond submit gaps without
/// paying a futex round trip per hop.
constexpr std::uint32_t kSpinIterations = 4000;

}  // namespace

struct Scheduler::ParallelJob {
  Scheduler* sched = nullptr;
  const TaskFn* fn = nullptr;
  Lane lane = Lane::kThroughput;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  /// Claimer tasks alive in queues or executing. The caller's wait covers
  /// outstanding == 0 as well as done == n so no queued claimer can
  /// outlive this stack-allocated job.
  std::atomic<std::size_t> outstanding{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  ///< first in completion order; guarded by mu
};

Scheduler::Scheduler(SchedulerOptions opts) {
  expects(opts.workers <= 4096, "Scheduler: implausible worker count");
  n_workers_ = opts.workers;
  workers_.reserve(n_workers_);
  for (std::size_t w = 0; w < n_workers_; ++w) {
    workers_.push_back(std::make_unique<Worker>(kQueueCapacity));
  }
  if (obs::enabled()) {
    obs::Registry::instance()
        .gauge("ptrack.runtime.sched.workers")
        .set(static_cast<double>(n_workers_));
  }
  // Threads start only after every Worker exists: a worker's first steal
  // scan touches all of its siblings.
  for (std::size_t w = 0; w < n_workers_; ++w) {
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
  }
}

Scheduler::~Scheduler() {
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->mutex);
    ++w->epoch;
    w->cv.notify_all();
  }
  for (auto& w : workers_) w->thread.join();
  // Straggler drain: anything a racing submitter queued while workers were
  // exiting runs here, on the destroying thread, so no task is dropped.
  if (n_workers_ > 0) {
    Task t;
    Lane lane{};
    while (find_task(0, t, lane)) execute(t, /*executor=*/0, lane);
  }
}

void Scheduler::submit(Lane lane, Task task, std::uint64_t affinity) {
  expects(task.fn != nullptr, "Scheduler::submit: task.fn required");
  const std::size_t l = lane_index(lane);
  st_.submitted[l].fetch_add(1, std::memory_order_relaxed);
  if (lane == Lane::kLatency) {
    PTRACK_COUNT("ptrack.runtime.sched.submitted.latency");
  } else {
    PTRACK_COUNT("ptrack.runtime.sched.submitted.throughput");
  }
  if (n_workers_ == 0) {
    // Degenerate single-threaded configuration: run inline, preserving the
    // "executor 0 == submitting thread" convention (caller_executor() == 0).
    st_.inline_runs.fetch_add(1, std::memory_order_relaxed);
    execute(task, /*executor=*/0, lane);
    return;
  }
  if (obs::enabled()) task.submit_ns = obs::now_ns();

  // Dekker handshake with parking workers: the pending increment must be
  // seq_cst-ordered before the parked-flag reads in wake_one (worker.hpp).
  pending_[l].fetch_add(1, std::memory_order_seq_cst);
  const std::size_t target =
      affinity != kNoAffinity
          ? static_cast<std::size_t>(affinity) % n_workers_
          : rr_.fetch_add(1, std::memory_order_relaxed) % n_workers_;
  if (!workers_[target]->lane(lane).push(task)) {
    {
      std::lock_guard<std::mutex> lk(spill_mu_[l]);
      // ptrack-lint: allow(alloc) counted ring-overflow fallback, not steady state
      spill_[l].push_back(task);
    }
    spill_count_[l].fetch_add(1, std::memory_order_relaxed);
    st_.spills.fetch_add(1, std::memory_order_relaxed);
    PTRACK_COUNT("ptrack.runtime.sched.spills");
  }
  update_depth_gauges();
  wake_one(target);
}

bool Scheduler::try_wake(std::size_t w) {
  Worker& wk = *workers_[w];
  if (!wk.parked.load(std::memory_order_seq_cst)) return false;
  {
    // Notify under the lock: the epoch bump is what the wait predicate
    // reads, and notifying while holding it closes the window where the
    // worker re-parks between our check and the notify.
    std::lock_guard<std::mutex> lk(wk.mutex);
    ++wk.epoch;
    // Claim the wake on the sleeper's behalf: until the worker is actually
    // scheduled it cannot clear its own flag, and a submit burst that kept
    // seeing parked==true would funnel every wake into this one worker
    // while its siblings slept through the backlog. (The worker's own
    // clear after cv.wait is then a harmless redundant store.)
    wk.parked.store(false, std::memory_order_seq_cst);
    wk.cv.notify_one();
  }
  st_.wakeups.fetch_add(1, std::memory_order_relaxed);
  PTRACK_COUNT("ptrack.runtime.sched.wakeups");
  return true;
}

void Scheduler::wake_one(std::size_t preferred) {
  // Affinity-first: the preferred worker's cache holds the stream's state.
  // If it is busy (not parked), any other parked worker will do — it can
  // steal the task if the preferred ring backs up.
  if (try_wake(preferred)) return;
  for (std::size_t k = 0; k < n_workers_; ++k) {
    if (k == preferred) continue;
    if (try_wake(k)) return;
  }
}

bool Scheduler::pop_spill(Lane lane, Task& out) {
  const std::size_t l = lane_index(lane);
  if (spill_count_[l].load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lk(spill_mu_[l]);
  if (spill_[l].empty()) return false;
  out = spill_[l].front();
  spill_[l].pop_front();
  spill_count_[l].fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool Scheduler::steal_half(std::size_t self, Lane lane, Task& out) {
  if (n_workers_ < 2) return false;
  const std::size_t l = lane_index(lane);
  Worker& me = *workers_[self];
  // xorshift64 victim cursor: cheap, per-worker, and deterministic enough
  // that tests can provoke steals by pinning work onto one ring.
  std::uint64_t x = me.steal_seed;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  me.steal_seed = x;
  const std::size_t start = static_cast<std::size_t>(x) % n_workers_;

  for (std::size_t k = 0; k < n_workers_; ++k) {
    const std::size_t v = (start + k) % n_workers_;
    if (v == self) continue;
    TaskQueue& vic = workers_[v]->lane(lane);
    const std::size_t avail = vic.size_approx();
    if (avail == 0) continue;
    const std::size_t want =
        std::min(std::max<std::size_t>(avail / 2, 1), kStealMax);
    Task buf[kStealMax];
    std::size_t got = 0;
    while (got < want && vic.pop(buf[got])) ++got;
    if (got == 0) continue;

    pending_[l].fetch_sub(got, std::memory_order_seq_cst);
    st_.steals.fetch_add(got, std::memory_order_relaxed);
    st_.steal_batches.fetch_add(1, std::memory_order_relaxed);
    PTRACK_COUNT_N("ptrack.runtime.sched.steals", got);

    // Run the oldest now; re-home the rest so our subsequent pops are
    // local. The re-homed tasks re-enter pending, so no sibling parks
    // while they exist.
    out = buf[0];
    for (std::size_t i = 1; i < got; ++i) {
      pending_[l].fetch_add(1, std::memory_order_seq_cst);
      if (!me.lane(lane).push(buf[i])) {
        {
          std::lock_guard<std::mutex> lk(spill_mu_[l]);
          // ptrack-lint: allow(alloc) counted ring-overflow fallback, not steady state
          spill_[l].push_back(buf[i]);
        }
        spill_count_[l].fetch_add(1, std::memory_order_relaxed);
        st_.spills.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return true;
  }
  return false;
}

bool Scheduler::find_task(std::size_t self, Task& out, Lane& lane_out) {
  // Lane priority is absolute: every latency source — own ring, spill,
  // steal — is checked before any throughput work is touched.
  for (const Lane lane : {Lane::kLatency, Lane::kThroughput}) {
    const std::size_t l = lane_index(lane);
    if (workers_[self]->lane(lane).pop(out)) {
      pending_[l].fetch_sub(1, std::memory_order_seq_cst);
      lane_out = lane;
      return true;
    }
    if (pop_spill(lane, out)) {
      pending_[l].fetch_sub(1, std::memory_order_seq_cst);
      lane_out = lane;
      return true;
    }
    if (steal_half(self, lane, out)) {
      lane_out = lane;  // steal_half already settled pending accounting
      return true;
    }
  }
  return false;
}

void Scheduler::execute(const Task& t, std::size_t executor, Lane lane) {
  const std::size_t l = lane_index(lane);
  const bool timed = t.submit_ns != 0 && obs::enabled();
  std::uint64_t start = 0;
  if (timed) {
    start = obs::now_ns();
    // Read only by PTRACK_HIST_US, which PTRACK_OBS=OFF compiles out.
    [[maybe_unused]] const double wait_us =
        static_cast<double>(start - t.submit_ns) / 1000.0;
    if (lane == Lane::kLatency) {
      PTRACK_HIST_US("ptrack.runtime.sched.latency.queue_wait_us", wait_us);
    } else {
      PTRACK_HIST_US("ptrack.runtime.sched.throughput.queue_wait_us",
                     wait_us);
    }
  }
  try {
    t.fn(t.ctx, executor, t.arg);
  } catch (...) {
    // Fire-and-forget tasks own their error channel (HopJob captures
    // internally, parallel_for claimers record into their job); anything
    // reaching here is a contract breach we count rather than crash on.
    st_.task_exceptions.fetch_add(1, std::memory_order_relaxed);
    PTRACK_COUNT("ptrack.runtime.sched.task_exceptions");
  }
  st_.executed[l].fetch_add(1, std::memory_order_relaxed);
  if (timed) {
    [[maybe_unused]] const double exec_us =
        static_cast<double>(obs::now_ns() - start) / 1000.0;
    if (lane == Lane::kLatency) {
      PTRACK_HIST_US("ptrack.runtime.sched.latency.exec_us", exec_us);
    } else {
      PTRACK_HIST_US("ptrack.runtime.sched.throughput.exec_us", exec_us);
    }
  }
}

void Scheduler::update_depth_gauges() {
  if (!obs::enabled()) return;
  static obs::Gauge& g_lat =
      obs::Registry::instance().gauge("ptrack.runtime.sched.depth.latency");
  static obs::Gauge& g_thr = obs::Registry::instance().gauge(
      "ptrack.runtime.sched.depth.throughput");
  g_lat.set(static_cast<double>(
      pending_[lane_index(Lane::kLatency)].load(std::memory_order_relaxed)));
  g_thr.set(static_cast<double>(pending_[lane_index(Lane::kThroughput)].load(
      std::memory_order_relaxed)));
}

void Scheduler::worker_loop(std::size_t w) {
  tl_worker_of = this;
  Worker& self = *workers_[w];
  self.steal_seed = 0x9e3779b97f4a7c15ULL ^ (w + 1);
  for (;;) {
    Task t;
    Lane lane{};
    if (find_task(w, t, lane)) {
      execute(t, w, lane);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;

    // Bounded spin: watch the pending counters (one cache line) instead of
    // rescanning every ring; covers sub-millisecond submit gaps without a
    // futex round trip.
    bool hot = false;
    for (std::uint32_t i = 0; i < kSpinIterations; ++i) {
      if (pending_[0].load(std::memory_order_relaxed) != 0 ||
          pending_[1].load(std::memory_order_relaxed) != 0 ||
          stop_.load(std::memory_order_relaxed)) {
        hot = true;
        break;
      }
      cpu_relax();
    }
    if (hot) continue;

    // Park. The parked-flag store and pending re-check are both seq_cst:
    // either a racing submitter's pending increment is visible here (we
    // skip the wait), or our parked=true is visible to its wake_one (it
    // bumps the epoch under our mutex). Lost wakeups are impossible.
    std::unique_lock<std::mutex> lk(self.mutex);
    self.parked.store(true, std::memory_order_seq_cst);
    if (pending_[0].load(std::memory_order_seq_cst) != 0 ||
        pending_[1].load(std::memory_order_seq_cst) != 0 ||
        stop_.load(std::memory_order_seq_cst)) {
      self.parked.store(false, std::memory_order_relaxed);
      continue;
    }
    st_.parks.fetch_add(1, std::memory_order_relaxed);
    PTRACK_COUNT("ptrack.runtime.sched.parks");
    update_depth_gauges();
    const std::uint64_t epoch0 = self.epoch;
    self.cv.wait(lk, [&] { return self.epoch != epoch0; });
    self.parked.store(false, std::memory_order_relaxed);
  }
  // Stop was signalled with the queues apparently empty; one final drain
  // catches tasks that raced in while we were exiting.
  Task t;
  Lane lane{};
  while (find_task(w, t, lane)) execute(t, w, lane);
  tl_worker_of = nullptr;
}

// ---------------------------------------------------------------------------
// parallel_for: deterministic fork-join on the throughput (or latency) lane.

void Scheduler::claimer_trampoline(void* ctx, std::size_t executor,
                                   std::uint64_t /*arg*/) {
  auto& job = *static_cast<ParallelJob*>(ctx);
  const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
  if (i < job.n) {
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
    if (job.next.load(std::memory_order_relaxed) < job.n) {
      // Resubmit instead of looping: the worker loop re-checks the latency
      // lane between consecutive batch items, which is the whole
      // anti-head-of-line-blocking mechanism. Affinity = our own ring, so
      // the resubmission is a local push, not a migration.
      job.sched->submit(job.lane,
                        Task{&Scheduler::claimer_trampoline, &job, 0, 0},
                        /*affinity=*/executor);
      return;
    }
  }
  // This claimer dies (index space consumed). The job may only be
  // reclaimed once outstanding hits zero, and the caller checks that under
  // job.mu: decrementing under the same lock keeps it from seeing zero,
  // returning and freeing the stack job before this claimer is done with
  // the mutex and condition variable.
  std::lock_guard<std::mutex> lk(job.mu);
  if (job.outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    job.cv.notify_all();
  }
}

void Scheduler::claim_inline(ParallelJob& job, std::size_t executor) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
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
  }
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

  // One claimer seeded per worker (fewer if the index space is smaller),
  // pinned to distinct rings so the fan-out does not itself need steals.
  const std::size_t seeds = std::min(n_tasks, n_workers_);
  job.outstanding.store(seeds, std::memory_order_relaxed);
  for (std::size_t w = 0; w < seeds; ++w) {
    submit(lane, Task{&Scheduler::claimer_trampoline, &job, 0, 0},
           /*affinity=*/w);
  }

  // The calling thread participates as executor workers() — with zero
  // workers this loop IS the whole job, run strictly inline and in order,
  // so participation is not optional there.
  if (caller_participates || n_workers_ == 0) {
    claim_inline(job, caller_executor());
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
  SchedulerStats s;
  s.submitted_latency =
      st_.submitted[lane_index(Lane::kLatency)].load(std::memory_order_relaxed);
  s.submitted_throughput = st_.submitted[lane_index(Lane::kThroughput)].load(
      std::memory_order_relaxed);
  s.executed_latency =
      st_.executed[lane_index(Lane::kLatency)].load(std::memory_order_relaxed);
  s.executed_throughput = st_.executed[lane_index(Lane::kThroughput)].load(
      std::memory_order_relaxed);
  s.inline_runs = st_.inline_runs.load(std::memory_order_relaxed);
  s.steals = st_.steals.load(std::memory_order_relaxed);
  s.steal_batches = st_.steal_batches.load(std::memory_order_relaxed);
  s.parks = st_.parks.load(std::memory_order_relaxed);
  s.wakeups = st_.wakeups.load(std::memory_order_relaxed);
  s.spills = st_.spills.load(std::memory_order_relaxed);
  s.task_exceptions = st_.task_exceptions.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ptrack::runtime
