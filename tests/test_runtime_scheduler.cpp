// Work-stealing scheduler tests (DESIGN.md §18): every submitted task runs
// exactly once across producers, workers and lanes; the latency lane
// strictly preempts queued throughput work; steal-half redistributes a
// pinned backlog; parallel_for keeps the fork-join contract (positional
// determinism, first-exception propagation, no reentrancy from workers);
// submission is allocation-free at steady state; and the HopJob actor
// produces bit-identical events to a directly-driven StreamingTracker.
//
// The stress cases are the TSan targets: N producers x M workers x both
// lanes with randomized affinity (steal pressure), concurrent parallel_for
// callers, a producer hammering a HopJob while the batch lane is busy, and
// tight job-lifetime loops (short dispatch-only jobs, HopJob teardown right
// after idle) that expose any touch of a job after its owner may free it.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/alloc_hooks.hpp"
#include "common/error.hpp"
#include "core/hop_job.hpp"
#include "core/ptrack.hpp"
#include "core/streaming.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/hop_executor.hpp"
#include "runtime/scheduler.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;
using runtime::Lane;
using runtime::Scheduler;
using runtime::SchedulerOptions;
using runtime::Task;

namespace {

/// Spin-waits (yielding) until `pred` holds or ~10 s pass.
template <typename Pred>
bool wait_until(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

SchedulerOptions opts(std::size_t workers) {
  SchedulerOptions o;
  o.workers = workers;
  return o;
}

imu::Trace make_walk_trace(std::uint64_t seed, double duration_s) {
  Rng rng(seed);
  synth::UserProfile user;
  const auto scenario = synth::Scenario::pure_walking(duration_s);
  return synth::synthesize(scenario, user, synth::SynthOptions{}, rng).trace;
}

void expect_events_identical(const std::vector<core::StepEvent>& a,
                             const std::vector<core::StepEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-identical, not merely close: the actor wraps the same tracker.
    EXPECT_EQ(a[i].t, b[i].t) << "event " << i;
    EXPECT_EQ(a[i].stride, b[i].stride) << "event " << i;
    EXPECT_EQ(a[i].type, b[i].type) << "event " << i;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Core scheduling semantics

TEST(Scheduler, RunsEverySubmittedTaskExactlyOnceAcrossProducersAndLanes) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 500;
  constexpr std::size_t kTotal = kProducers * kPerProducer;

  std::vector<std::atomic<int>> hits(kTotal);
  {
    Scheduler sched(opts(3));
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::mt19937_64 rng(0xabc + p);
        for (std::size_t i = 0; i < kPerProducer; ++i) {
          Task t;
          t.fn = [](void* ctx, std::size_t, std::uint64_t arg) {
            static_cast<std::atomic<int>*>(ctx)[arg].fetch_add(1);
          };
          t.ctx = hits.data();
          t.arg = p * kPerProducer + i;
          const Lane lane = (i % 2 == 0) ? Lane::kLatency : Lane::kThroughput;
          // Randomized placement: pinned rings and round-robin both in play.
          const std::uint64_t affinity =
              (rng() % 3 == 0) ? runtime::kNoAffinity : rng() % 8;
          sched.submit(lane, t, affinity);
        }
      });
    }
    for (auto& th : producers) th.join();
    const auto s = sched.stats();
    EXPECT_EQ(s.submitted_latency + s.submitted_throughput, kTotal);
    // Scheduler destruction drains every queued task before joining.
  }
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(Scheduler, LatencyLaneDrainsBeforeQueuedThroughputWork) {
  // One worker, all tasks pinned to its ring: execution order is exactly
  // the worker loop's drain order, so the lane priority is observable
  // deterministically.
  Scheduler sched(opts(1));

  std::atomic<bool> gate_open{false};
  std::atomic<bool> gate_running{false};
  struct GateCtx {
    std::atomic<bool>* open;
    std::atomic<bool>* running;
  } gate_ctx{&gate_open, &gate_running};
  Task gate;
  gate.fn = [](void* ctx, std::size_t, std::uint64_t) {
    auto* g = static_cast<GateCtx*>(ctx);
    g->running->store(true);
    while (!g->open->load()) std::this_thread::yield();
  };
  gate.ctx = &gate_ctx;
  sched.submit(Lane::kLatency, gate, /*affinity=*/0);
  ASSERT_TRUE(wait_until([&] { return gate_running.load(); }));

  // With the worker held, queue throughput FIRST, latency SECOND — arrival
  // order must lose to lane priority.
  struct OrderCtx {
    std::mutex mu;
    std::vector<std::uint64_t> order;
  } order_ctx;
  Task record;
  record.fn = [](void* ctx, std::size_t, std::uint64_t arg) {
    auto* o = static_cast<OrderCtx*>(ctx);
    std::lock_guard<std::mutex> lk(o->mu);
    o->order.push_back(arg);
  };
  record.ctx = &order_ctx;
  constexpr std::uint64_t kEach = 5;
  for (std::uint64_t i = 0; i < kEach; ++i) {
    record.arg = 100 + i;  // throughput ids
    sched.submit(Lane::kThroughput, record, /*affinity=*/0);
  }
  for (std::uint64_t i = 0; i < kEach; ++i) {
    record.arg = i;  // latency ids
    sched.submit(Lane::kLatency, record, /*affinity=*/0);
  }
  gate_open.store(true);
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard<std::mutex> lk(order_ctx.mu);
    return order_ctx.order.size() == 2 * kEach;
  }));

  std::lock_guard<std::mutex> lk(order_ctx.mu);
  for (std::size_t i = 0; i < kEach; ++i) {
    EXPECT_LT(order_ctx.order[i], 100u)
        << "latency task expected at position " << i;
    EXPECT_GE(order_ctx.order[kEach + i], 100u)
        << "throughput task expected at position " << (kEach + i);
  }
  // FIFO within a lane: oldest queued hop first (bounded unfairness).
  for (std::size_t i = 0; i + 1 < kEach; ++i) {
    EXPECT_LT(order_ctx.order[i], order_ctx.order[i + 1]);
  }
}

TEST(Scheduler, StealHalfRedistributesAPinnedBacklog) {
  Scheduler sched(opts(4));
  constexpr std::size_t kTasks = 64;
  std::atomic<std::size_t> done{0};
  struct Ctx {
    std::atomic<std::size_t>* done;
  } ctx{&done};
  for (std::size_t i = 0; i < kTasks; ++i) {
    Task t;
    t.fn = [](void* c, std::size_t, std::uint64_t) {
      // Sleeping releases the core (this box may be single-CPU), so the
      // other woken workers get scheduled and must steal to help.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      static_cast<Ctx*>(c)->done->fetch_add(1);
    };
    t.ctx = &ctx;
    sched.submit(Lane::kThroughput, t, /*affinity=*/0);  // all on one ring
  }
  ASSERT_TRUE(wait_until([&] { return done.load() == kTasks; }));
  const auto s = sched.stats();
  EXPECT_GT(s.steals, 0u) << "a 64-task backlog pinned to one of four "
                             "workers must provoke steal-half";
  EXPECT_EQ(s.executed_throughput, kTasks);
}

TEST(Scheduler, ParksWhenIdleAndWakesOnSubmit) {
  Scheduler sched(opts(2));
  // Outlast the spin phase so the workers actually park.
  ASSERT_TRUE(wait_until([&] { return sched.stats().parks >= 2; }));

  std::atomic<bool> ran{false};
  Task t;
  t.fn = [](void* c, std::size_t, std::uint64_t) {
    static_cast<std::atomic<bool>*>(c)->store(true);
  };
  t.ctx = &ran;
  sched.submit(Lane::kLatency, t);
  ASSERT_TRUE(wait_until([&] { return ran.load(); }));
  EXPECT_GT(sched.stats().wakeups, 0u);
}

TEST(Scheduler, ZeroWorkersRunsEverythingInline) {
  Scheduler sched(opts(0));
  EXPECT_EQ(sched.workers(), 0u);
  const auto main_id = std::this_thread::get_id();

  std::atomic<int> runs{0};
  struct Ctx {
    std::atomic<int>* runs;
    std::thread::id main_id;
  } ctx{&runs, main_id};
  Task t;
  t.fn = [](void* c, std::size_t executor, std::uint64_t) {
    auto* x = static_cast<Ctx*>(c);
    EXPECT_EQ(std::this_thread::get_id(), x->main_id);
    EXPECT_EQ(executor, 0u);
    x->runs->fetch_add(1);
  };
  t.ctx = &ctx;
  sched.submit(Lane::kLatency, t);
  EXPECT_EQ(runs.load(), 1);  // ran before submit returned

  // parallel_for degenerates to a strictly-inline, in-order loop.
  std::vector<std::size_t> order;
  sched.parallel_for(Lane::kThroughput, 5, [&](std::size_t i, std::size_t e) {
    EXPECT_EQ(e, sched.caller_executor());
    EXPECT_EQ(std::this_thread::get_id(), main_id);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sched.stats().inline_runs, 1u);
}

TEST(Scheduler, ParallelForPropagatesFirstExceptionAndStaysUsable) {
  Scheduler sched(opts(2));
  EXPECT_THROW(sched.parallel_for(Lane::kThroughput, 50,
                                  [&](std::size_t task, std::size_t) {
                                    if (task == 23) {
                                      throw std::runtime_error("task 23");
                                    }
                                  }),
               std::runtime_error);
  std::atomic<int> ok{0};
  sched.parallel_for(Lane::kThroughput, 8,
                     [&](std::size_t, std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(Scheduler, ParallelForFromOwnWorkerIsRejected) {
  Scheduler sched(opts(1));
  std::atomic<bool> ran{false};
  struct Ctx {
    Scheduler* sched;
    std::atomic<bool>* ran;
  } ctx{&sched, &ran};
  Task t;
  t.fn = [](void* c, std::size_t, std::uint64_t) {
    auto* x = static_cast<Ctx*>(c);
    // The nested call must throw (worker blocking on its own pool would
    // deadlock); the scheduler swallows and counts it.
    x->sched->parallel_for(Lane::kThroughput, 1,
                           [](std::size_t, std::size_t) {});
    x->ran->store(true);
  };
  t.ctx = &ctx;
  sched.submit(Lane::kThroughput, t);
  ASSERT_TRUE(wait_until([&] { return sched.stats().task_exceptions == 1; }));
  EXPECT_FALSE(ran.load());
}

TEST(Scheduler, ConcurrentParallelForCallersShareTheWorkers) {
  Scheduler sched(opts(3));
  constexpr std::size_t kN = 300;
  std::vector<std::atomic<int>> a(kN);
  std::vector<std::atomic<int>> b(kN);
  std::thread other([&] {
    sched.parallel_for(Lane::kThroughput, kN, [&](std::size_t i, std::size_t) {
      b[i].fetch_add(1);
    });
  });
  sched.parallel_for(Lane::kLatency, kN,
                     [&](std::size_t i, std::size_t) { a[i].fetch_add(1); });
  other.join();
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i].load(), 1) << "latency job task " << i;
    ASSERT_EQ(b[i].load(), 1) << "throughput job task " << i;
  }
}

TEST(Scheduler, SubmissionIsAllocationFreeAfterWarmup) {
  Scheduler sched(opts(2));
  // Warm-up: registers the obs handles (function-local statics) and sizes
  // nothing else — rings were pre-sized in the constructor.
  std::atomic<int> sink{0};
  Task t;
  t.fn = [](void* c, std::size_t, std::uint64_t) {
    static_cast<std::atomic<int>*>(c)->fetch_add(1);
  };
  t.ctx = &sink;
  for (int i = 0; i < 32; ++i) {
    sched.submit(i % 2 == 0 ? Lane::kLatency : Lane::kThroughput, t,
                 static_cast<std::uint64_t>(i));
  }
  ASSERT_TRUE(wait_until([&] { return sink.load() == 32; }));
  // Make sure the park/wake metric handles registered too: wait for the
  // workers to park, then submit through the targeted-wake path once.
  ASSERT_TRUE(wait_until([&] { return sched.stats().parks >= 1; }));
  for (int i = 0; i < 4; ++i) sched.submit(Lane::kLatency, t);
  ASSERT_TRUE(wait_until([&] { return sink.load() == 36; }));

  const auto before = alloc::thread_stats();
  {
    alloc::NoAllocScope guard("scheduler submit steady state",
                              alloc::NoAllocScope::Mode::kCount);
    for (int i = 0; i < 200; ++i) {
      sched.submit(i % 2 == 0 ? Lane::kLatency : Lane::kThroughput, t,
                   static_cast<std::uint64_t>(i));
    }
  }
  const auto after = alloc::thread_stats();
  if (alloc::hooks_enabled()) {
    EXPECT_EQ(after.allocations, before.allocations)
        << "steady-state submit must not touch the heap";
  }
  ASSERT_TRUE(wait_until([&] { return sink.load() == 236; }));
  EXPECT_EQ(sched.stats().spills, 0u);
}

// ---------------------------------------------------------------------------
// BatchRunner equivalence on top of the scheduler

TEST(SchedulerBatch, PositionalResultsIdenticalAtPoolSizes128) {
  std::vector<imu::Trace> traces;
  traces.reserve(6);
  for (std::uint64_t i = 0; i < 6; ++i) {
    traces.push_back(
        make_walk_trace(0x5eed + i, 20.0 + 2.0 * static_cast<double>(i % 3)));
  }

  // Direct single-threaded reference.
  std::vector<core::TrackResult> expected;
  expected.reserve(traces.size());
  core::PTrack direct;
  for (const auto& tr : traces) expected.push_back(direct.process(tr));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    runtime::BatchRunner runner({}, {.threads = threads});
    const auto results = runner.run(traces);
    ASSERT_EQ(results.size(), traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
      ASSERT_TRUE(results[i].has_value())
          << "threads=" << threads << " slot " << i;
      const auto& got = *results[i];
      EXPECT_EQ(got.steps, expected[i].steps);
      ASSERT_EQ(got.events.size(), expected[i].events.size());
      for (std::size_t e = 0; e < got.events.size(); ++e) {
        EXPECT_EQ(got.events[e].t, expected[i].events[e].t);
        EXPECT_EQ(got.events[e].stride, expected[i].events[e].stride);
        EXPECT_EQ(got.events[e].type, expected[i].events[e].type);
      }
    }
  }
}

TEST(SchedulerBatch, BorrowedSchedulerUsesItsThroughputLane) {
  Scheduler sched(opts(2));
  runtime::BatchRunner runner({}, {.scheduler = &sched});
  EXPECT_EQ(runner.threads(), 3u);  // 2 workers + the calling thread

  const auto traces = std::vector<imu::Trace>{make_walk_trace(0xbee, 20.0)};
  const auto results = runner.run(traces);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].has_value());

  core::PTrack direct;
  const auto expected = direct.process(traces[0]);
  EXPECT_EQ((*results[0]).steps, expected.steps);

  const auto s = sched.stats();
  EXPECT_GT(s.submitted_throughput, 0u);
  EXPECT_EQ(s.submitted_latency, 0u);
}

TEST(SchedulerBatch, DispatchOnlyCallerClaimsNoTasks) {
  Scheduler sched(opts(2));

  // Dispatch-only parallel_for: every index runs exactly once, none of
  // them on the calling thread's executor id.
  constexpr std::size_t kN = 64;
  std::array<std::atomic<int>, kN> hits = {};
  std::atomic<bool> caller_ran{false};
  sched.parallel_for(
      Lane::kThroughput, kN,
      [&](std::size_t i, std::size_t executor) {
        if (executor == sched.caller_executor()) caller_ran.store(true);
        hits[i].fetch_add(1);
      },
      /*caller_participates=*/false);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_FALSE(caller_ran.load());

  // Exceptions still propagate to the dispatching caller.
  EXPECT_THROW(sched.parallel_for(
                   Lane::kThroughput, 8,
                   [](std::size_t i, std::size_t) {
                     if (i == 3) throw std::runtime_error("boom");
                   },
                   /*caller_participates=*/false),
               std::runtime_error);

  // BatchRunner passthrough: positional results identical to a direct run.
  runtime::BatchRunner runner(
      {}, {.scheduler = &sched, .caller_participates = false});
  const auto traces = std::vector<imu::Trace>{make_walk_trace(0xd15, 20.0)};
  const auto results = runner.run(traces);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].has_value());
  core::PTrack direct;
  EXPECT_EQ((*results[0]).steps, direct.process(traces[0]).steps);

  // With zero workers the caller is the only executor, so participation
  // is forced rather than deadlocking.
  Scheduler inline_sched(opts(0));
  std::size_t ran = 0;
  inline_sched.parallel_for(
      Lane::kThroughput, 4, [&](std::size_t, std::size_t) { ++ran; },
      /*caller_participates=*/false);
  EXPECT_EQ(ran, 4u);
}

TEST(Scheduler, DispatchOnlyParallelForNeverOutlivesItsJob) {
  // Many short dispatch-only jobs: the caller returns (and its stack job
  // dies) the moment the last claimer retires, so any claimer touch of
  // the job after its final decrement is a use-after-free that TSan/ASan
  // builds report. 1-2 tasks keep the retire/return window as tight as
  // it gets.
  Scheduler sched(opts(2));
  std::atomic<std::size_t> ran{0};
  constexpr std::size_t kCalls = 100000;
  for (std::size_t c = 0; c < kCalls; ++c) {
    sched.parallel_for(
        Lane::kThroughput, 1 + c % 2,
        [&](std::size_t, std::size_t) {
          ran.fetch_add(1, std::memory_order_relaxed);
        },
        /*caller_participates=*/false);
  }
  EXPECT_EQ(ran.load(), kCalls + kCalls / 2);
}

// ---------------------------------------------------------------------------
// HopJob: off-thread streaming hops

namespace {

/// Degenerate executor: runs the hop on the calling thread, immediately.
class InlineExecutor final : public core::HopExecutor {
 public:
  void submit(core::HopJob& job, std::uint64_t) override {
    job.run_scheduled(/*executor=*/0);
  }
};

}  // namespace

TEST(HopJob, InlineExecutorMatchesDirectTracker) {
  const auto trace = make_walk_trace(0xcafe, 30.0);
  core::StreamingConfig cfg;

  InlineExecutor exec;
  core::HopJob job(exec, /*stream_id=*/7, trace.fs(), cfg);
  core::StreamingTracker ref(trace.fs(), cfg);

  std::vector<core::StepEvent> got;
  std::vector<core::StepEvent> want;
  // Chunked pushes with interleaved polls — the streaming call shape.
  const auto& samples = trace.samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    job.push(samples[i]);
    ref.push(samples[i]);
    if (i % 257 == 0) {
      job.poll_into(got);
      ref.poll_into(want);
    }
  }
  job.drain_into(got);
  ref.poll_into(want);
  ref.drain_into(want);

  ASSERT_GT(want.size(), 0u) << "a 30 s walk must emit steps";
  expect_events_identical(got, want);
  EXPECT_EQ(job.stats().samples_pushed, samples.size());
  EXPECT_GT(job.runs_completed(), 0u);
}

TEST(HopJob, OffThreadHopsMatchDirectTrackerBitForBit) {
  const auto trace = make_walk_trace(0xdead, 30.0);
  core::StreamingConfig cfg;

  Scheduler sched(opts(2));
  runtime::SchedulerHopExecutor exec(sched);
  core::StreamingTracker ref(trace.fs(), cfg);
  std::vector<core::StepEvent> got;
  std::vector<core::StepEvent> want;
  {
    core::HopJob job(exec, /*stream_id=*/42, trace.fs(), cfg);
    const auto& samples = trace.samples();
    for (std::size_t i = 0; i < samples.size(); ++i) {
      job.push(samples[i]);
      ref.push(samples[i]);
      if (i % 509 == 0) job.poll_into(got);  // poll while hops are in flight
    }
    job.drain_into(got);
    EXPECT_EQ(job.stats().samples_pushed, samples.size());
  }
  ref.poll_into(want);
  ref.drain_into(want);

  ASSERT_GT(want.size(), 0u);
  expect_events_identical(got, want);
  EXPECT_GT(sched.stats().submitted_latency, 0u);
}

namespace {

/// Latency-lane executor that pins each hop to the next worker in turn,
/// so a stream's hops keep moving between threads.
class RotatingExecutor final : public core::HopExecutor {
 public:
  explicit RotatingExecutor(Scheduler& sched) : sched_(sched) {}
  void submit(core::HopJob& job, std::uint64_t) override {
    Task t;
    t.fn = [](void* ctx, std::size_t executor, std::uint64_t) {
      static_cast<core::HopJob*>(ctx)->run_scheduled(executor);
    };
    t.ctx = &job;
    sched_.submit(Lane::kLatency, t,
                  next_.fetch_add(1, std::memory_order_relaxed));
  }

 private:
  Scheduler& sched_;
  std::atomic<std::uint64_t> next_{0};
};

}  // namespace

// The filter scratch is the thread's, not the stream's: two streams whose
// hops rotate over two workers (so each worker's scratch serves both, and
// each stream runs on both workers' scratch) still emit exactly the
// batch events of their samples.
TEST(HopJob, StreamsMovingBetweenWorkersMatchBatch) {
  const auto walk = make_walk_trace(0xa11, 40.0);
  const auto other = make_walk_trace(0xa12, 33.0);
  core::StreamingConfig cfg;
  cfg.hop_s = 0.5;
  core::StreamingConfig windowed = cfg;
  windowed.pipeline.counter.anterior_window_s = 10.0;

  Scheduler sched(opts(2));
  RotatingExecutor exec(sched);
  std::vector<core::StepEvent> got_walk;
  std::vector<core::StepEvent> got_other;
  std::vector<std::size_t> seen(2, 0);
  {
    core::HopJob a(exec, /*stream_id=*/1, walk.fs(), cfg);
    core::HopJob b(exec, /*stream_id=*/2, other.fs(), windowed);
    constexpr std::size_t kChunk = 173;
    for (std::size_t i = 0; i < walk.size(); i += kChunk) {
      for (std::size_t j = i; j < std::min(i + kChunk, walk.size()); ++j) {
        a.push(walk[j]);
        if (j < other.size()) b.push(other[j]);
      }
      a.wait_idle();
      b.wait_idle();
      for (const core::HopJob* job : {&a, &b}) {
        if (job->last_executor() < seen.size()) ++seen[job->last_executor()];
      }
      a.poll_into(got_walk);
      b.poll_into(got_other);
    }
    a.drain_into(got_walk);
    b.drain_into(got_other);
  }
  EXPECT_GT(seen[0], 0u);
  EXPECT_GT(seen[1], 0u);
  const core::TrackResult want_walk = core::PTrack(cfg.pipeline).process(walk);
  const core::TrackResult want_other =
      core::PTrack(windowed.pipeline).process(other);
  ASSERT_GT(want_walk.events.size(), 30u);
  ASSERT_GT(want_other.events.size(), 30u);
  expect_events_identical(got_walk, want_walk.events);
  expect_events_identical(got_other, want_other.events);
}

TEST(HopJob, AffinityKeepsHopsOnThePreferredWorker) {
  Scheduler sched(opts(2));
  runtime::SchedulerHopExecutor exec(sched);
  const auto trace = make_walk_trace(0xfeed, 20.0);
  // stream_id 0 -> worker 0 is the preferred executor.
  core::HopJob job(exec, /*stream_id=*/0, trace.fs(), {});

  std::size_t on_preferred = 0;
  constexpr std::size_t kRounds = 20;
  const std::size_t chunk = trace.size() / kRounds;
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t i = r * chunk; i < (r + 1) * chunk; ++i) {
      job.push(trace.samples()[i]);
    }
    job.wait_idle();
    on_preferred += job.last_executor() == 0 ? 1 : 0;
    // Let the workers park so the next push exercises the targeted wake.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Cache-warmth is a hint, not a guarantee (a spinning sibling may grab a
  // hop first), but with parked workers the targeted wake must dominate.
  EXPECT_GT(on_preferred, kRounds / 2)
      << "affinity hint should route most hops to worker 0";
}

TEST(HopJob, RejectsMismatchedRateAndSurvivesGarbageSamples) {
  InlineExecutor exec;
  core::HopJob job(exec, /*stream_id=*/1, 128.0, {});
  // A fs-mismatched trace throws on the producer side, before anything is
  // enqueued (same contract as StreamingTracker::push(Trace))...
  EXPECT_THROW(job.push(make_walk_trace(0x1, 5.0)), InvalidArgument);
  EXPECT_EQ(job.stats().samples_pushed, 0u);
  // ...while nonphysical samples flow through the quality layer's
  // detect/repair instead of poisoning the actor: hops keep running and
  // the job stays drainable.
  imu::Sample bad;
  bad.accel = {1.0e308, -1.0e308, 1.0e308};
  bad.gyro = {1.0e308, 1.0e308, -1.0e308};
  for (int i = 0; i < 300; ++i) job.push(bad);
  EXPECT_NO_THROW(job.wait_idle());
  EXPECT_EQ(job.stats().samples_pushed, 300u);
  EXPECT_GT(job.runs_completed(), 0u);
  std::vector<core::StepEvent> out;
  EXPECT_NO_THROW(job.drain_into(out));
  EXPECT_EQ(out.size(), job.stats().events_emitted);
}

TEST(HopJob, StressProducerVsBatchOnSharedScheduler) {
  // The mixed-load shape under TSan: one producer streams hops on the
  // latency lane while batch sweeps saturate the throughput lane of the
  // same scheduler.
  Scheduler sched(opts(3));
  runtime::SchedulerHopExecutor exec(sched);
  const auto trace = make_walk_trace(0xace, 25.0);
  core::StreamingTracker ref(trace.fs(), {});
  std::vector<core::StepEvent> got;

  std::atomic<bool> stop_batch{false};
  std::thread batcher([&] {
    while (!stop_batch.load()) {
      sched.parallel_for(Lane::kThroughput, 64, [](std::size_t, std::size_t) {
        volatile double x = 0.0;
        for (int i = 0; i < 2000; ++i) x = x + 1.0;
      });
    }
  });
  {
    core::HopJob job(exec, /*stream_id=*/9, trace.fs(), {});
    for (const auto& s : trace.samples()) {
      job.push(s);
      ref.push(s);
    }
    job.drain_into(got);
  }
  stop_batch.store(true);
  batcher.join();

  std::vector<core::StepEvent> want;
  ref.poll_into(want);
  ref.drain_into(want);
  ASSERT_GT(want.size(), 0u);
  expect_events_identical(got, want);
}

TEST(HopJob, DestroyRightAfterIdleIsSafe) {
  // Create / push / (wait_idle) / destroy cycles on a live scheduler: the
  // owner frees the job as soon as it observes idle, so the executor must
  // not touch the job after going idle. Heap jobs make a late touch
  // visible to ASan; TSan sees the race on the freed members.
  Scheduler sched(opts(2));
  runtime::SchedulerHopExecutor exec(sched);
  const auto trace = make_walk_trace(0xf7ee, 1.0);
  for (std::size_t cycle = 0; cycle < 2000; ++cycle) {
    auto job = std::make_unique<core::HopJob>(exec, cycle, trace.fs());
    for (std::size_t i = 0; i < 1 + cycle % 8; ++i) job->push(trace[i]);
    if (cycle % 2 == 0) job->wait_idle();  // odd cycles: ~HopJob waits
    job.reset();
  }
  EXPECT_EQ(sched.stats().task_exceptions, 0u);
}
