// Adapter: core::HopExecutor port -> Scheduler latency lane.
//
// core defines the HopExecutor interface so HopJob can exist without a
// dependency on the runtime layer (tests drive it with an inline
// executor); this header is where the two meet. Hops are latency-lane
// tasks by definition — they preempt any batch work queued on the same
// scheduler — and run on whichever worker pops them first: the shared
// queue places nothing, so the affinity token is not passed on.

#pragma once

#include "core/hop_job.hpp"
#include "runtime/scheduler.hpp"

namespace ptrack::runtime {

class SchedulerHopExecutor final : public core::HopExecutor {
 public:
  explicit SchedulerHopExecutor(Scheduler& sched) : sched_(sched) {}

  void submit(core::HopJob& job, std::uint64_t /*affinity*/) override {
    Task t;
    t.fn = [](void* ctx, std::size_t executor, std::uint64_t /*arg*/) {
      static_cast<core::HopJob*>(ctx)->run_scheduled(executor);
    };
    t.ctx = &job;
    sched_.submit(Lane::kLatency, t);
  }

 private:
  Scheduler& sched_;
};

}  // namespace ptrack::runtime
