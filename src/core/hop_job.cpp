#include "core/hop_job.hpp"

#include "common/check.hpp"
#include "common/error.hpp"

namespace ptrack::core {

HopJob::HopJob(HopExecutor& executor, std::uint64_t stream_id, double fs,
               StreamingConfig config)
    : executor_(executor),
      stream_id_(stream_id),
      tracker_(fs, config) {
  // Mailbox capacity for ~several hops of samples at wearable rates; the
  // ping-pong swap in run_hops() preserves whatever it grows to.
  inbox_.reserve(1024);
  scratch_.reserve(1024);
}

HopJob::~HopJob() {
  // Quiesce without throwing: a captured hop error is dropped here — the
  // documented contract is to wait_idle() first if errors matter.
  std::unique_lock<std::mutex> lk(idle_mu_);
  idle_cv_.wait(lk, [&] {
    return state_.load(std::memory_order_acquire) == kIdle;
  });
}

void HopJob::push(const imu::Sample& sample) {
  {
    std::lock_guard<std::mutex> lk(in_mu_);
    inbox_.push_back(sample);
  }
  ensure_scheduled();
}

void HopJob::push(const imu::Trace& trace) {
  expects(trace.fs() == tracker_.fs(),
          "HopJob::push: trace sample rate must match the job's fs");
  if (trace.empty()) return;
  {
    std::lock_guard<std::mutex> lk(in_mu_);
    inbox_.insert(inbox_.end(), trace.samples().begin(),
                  trace.samples().end());
  }
  ensure_scheduled();
}

void HopJob::ensure_scheduled() {
  int s = state_.load(std::memory_order_acquire);
  for (;;) {
    switch (s) {
      case kIdle:
        if (state_.compare_exchange_weak(s, kScheduled,
                                         std::memory_order_acq_rel)) {
          executor_.submit(*this, stream_id_);
          return;
        }
        break;  // s reloaded; reclassify
      case kRunning:
        // The running task already swapped the mailbox out; mark it dirty
        // so it loops for the samples we just appended instead of going
        // idle past them.
        if (state_.compare_exchange_weak(s, kRunningDirty,
                                         std::memory_order_acq_rel)) {
          return;
        }
        break;
      default:
        // kScheduled or kRunningDirty: the pending drain will see us.
        PTRACK_CHECK_MSG(s == kScheduled || s == kRunningDirty,
                         "HopJob: state machine has exactly four states");
        return;
    }
  }
}

void HopJob::run_scheduled(std::size_t executor) {
  // Exactly one scheduled execution exists at a time (ensure_scheduled's
  // kIdle -> kScheduled transition is the only submit), so entry always
  // observes its own kScheduled.
  PTRACK_CHECK_MSG(state_.load(std::memory_order_acquire) == kScheduled,
                   "HopJob::run_scheduled: one execution in flight");
  last_executor_.store(executor, std::memory_order_relaxed);
  state_.store(kRunning, std::memory_order_release);
  for (;;) {
    scratch_.clear();
    {
      std::lock_guard<std::mutex> lk(in_mu_);
      scratch_.swap(inbox_);  // capacity ping-pong: both sides stay warm
    }
    try {
      for (const imu::Sample& s : scratch_) tracker_.push(s);
      std::lock_guard<std::mutex> lk(out_mu_);
      tracker_.poll_into(ready_);
    } catch (...) {
      std::lock_guard<std::mutex> lk(err_mu_);
      if (!error_) error_ = std::current_exception();
    }
    {
      // Go idle under idle_mu_: waiters (wait_idle, ~HopJob) only observe
      // kIdle under that lock, so the owner cannot free the job until this
      // block has released it. The counter bump and the notify are the
      // last touches of *this, both before the unlock.
      std::lock_guard<std::mutex> lk(idle_mu_);
      int expected = kRunning;
      if (state_.compare_exchange_strong(expected, kIdle,
                                         std::memory_order_acq_rel)) {
        runs_completed_.fetch_add(1, std::memory_order_relaxed);
        idle_cv_.notify_all();
        return;
      }
    }
    // kRunningDirty: samples landed after our swap; drain again within the
    // same task rather than paying another submit round trip.
    state_.store(kRunning, std::memory_order_release);
  }
}

void HopJob::poll_into(std::vector<StepEvent>& out) {
  std::lock_guard<std::mutex> lk(out_mu_);
  out.insert(out.end(), ready_.begin(), ready_.end());
  ready_.clear();
}

void HopJob::wait_idle() {
  {
    std::unique_lock<std::mutex> lk(idle_mu_);
    idle_cv_.wait(lk, [&] {
      return state_.load(std::memory_order_acquire) == kIdle;
    });
  }
  // Single-producer contract: the waiter is the pusher, so nothing can
  // have re-scheduled the job between the wait and this read.
  PTRACK_CHECK_MSG(state_.load(std::memory_order_acquire) == kIdle,
                   "HopJob::wait_idle: idle on return");
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(err_mu_);
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void HopJob::drain_into(std::vector<StepEvent>& out) {
  wait_idle();
  // Idle + single-producer contract: no task is queued or running and no
  // concurrent push can start one, so the tracker is ours to flush here.
  poll_into(out);
  tracker_.drain_into(out);
}

}  // namespace ptrack::core
