// Ingest-server integration tests over real Unix domain sockets: healthy
// round trips checked bit-for-bit (at wire precision) against a local
// StreamingTracker oracle and, through a live ptrack_serve process, against
// batch PTrack::process, the chaos soak (faulty clients must not harm
// healthy neighbors and every session must be reclaimed), admission
// shedding, slow-consumer eviction, stall eviction, and the graceful
// server-initiated drain.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/ptrack.hpp"
#include "core/streaming.hpp"
#include "imu/faults.hpp"
#include "net/chaos.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;
using namespace ptrack::net;

namespace {

imu::Trace walking_trace(double seconds, std::uint64_t seed) {
  Rng rng(seed);
  synth::UserProfile user;
  return synth::synthesize(synth::Scenario::pure_walking(seconds), user,
                           synth::SynthOptions{}, rng)
      .trace;
}

/// What a healthy client must receive: the same pipeline run locally,
/// never polled until the end so one drain captures every event.
std::vector<core::StepEvent> oracle_events(const imu::Trace& trace,
                                           const core::StreamingConfig& cfg) {
  core::StreamingTracker tracker(trace.fs(), cfg);
  for (const imu::Sample& s : trace.samples()) tracker.push(s);
  std::vector<core::StepEvent> out;
  tracker.drain_into(out);
  return out;
}

/// Wire precision: t/stride travel as f64 (exact), quality as f32.
void expect_wire_equal(const std::vector<core::StepEvent>& wire,
                       const std::vector<core::StepEvent>& oracle) {
  ASSERT_EQ(wire.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(wire[i].t, oracle[i].t) << "event " << i;
    EXPECT_EQ(wire[i].stride, oracle[i].stride) << "event " << i;
    EXPECT_EQ(static_cast<float>(wire[i].quality),
              static_cast<float>(oracle[i].quality))
        << "event " << i;
    EXPECT_EQ(wire[i].type, oracle[i].type) << "event " << i;
    EXPECT_EQ(wire[i].degraded, oracle[i].degraded) << "event " << i;
  }
}

template <typename Pred>
bool wait_for(Pred pred, double timeout_s) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() < timeout_s) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// Server on a private UDS path + its reactor thread, torn down with the
/// fixture. request_stop in the destructor keeps failures from hanging.
/// with_admin additionally binds the read-only telemetry listener so soak
/// tests can scrape the server while it is under fire.
struct ServerRunner {
  Server server;
  Endpoint ep;
  Endpoint admin_ep;
  std::thread thread;

  ServerRunner(ServerConfig cfg, const std::string& name,
               bool with_admin = false)
      : server(std::move(cfg)),
        ep(Endpoint::uds("/tmp/ptsrv_" + std::to_string(::getpid()) + "_" +
                         name + ".sock")),
        admin_ep(Endpoint::uds("/tmp/ptsrv_" + std::to_string(::getpid()) +
                               "_" + name + ".admin.sock")) {
    server.listen(ep);
    if (with_admin) server.listen_admin(admin_ep);
    thread = std::thread([this] { server.run(); });
    EXPECT_TRUE(wait_for([this] { return server.running(); }, 5.0));
  }

  ~ServerRunner() {
    server.request_stop();
    if (thread.joinable()) thread.join();
  }
};

}  // namespace

TEST(NetServer, HealthyClientMatchesOracle) {
  ServerRunner runner(ServerConfig{}, "healthy");
  const imu::Trace trace = walking_trace(30.0, 1001);

  ClientConfig ccfg;
  ccfg.session_id = 7;
  ccfg.fs = trace.fs();
  const ClientResult res =
      run_healthy_client(runner.ep, ccfg, trace.samples());
  ASSERT_TRUE(res.ok) << res.detail;

  const auto oracle = oracle_events(trace, core::StreamingConfig{});
  ASSERT_GT(oracle.size(), 20u);  // ~55 steps in 30 s
  expect_wire_equal(res.events, oracle);
  EXPECT_EQ(res.drained.samples_total, trace.size());
  EXPECT_EQ(res.drained.events_total, oracle.size());

  EXPECT_TRUE(wait_for(
      [&] { return runner.server.stats().sessions_active == 0; }, 5.0));
  const ServerStats s = runner.server.stats();
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_EQ(s.closed, 1u);
  EXPECT_EQ(s.session_errors, 0u);
  EXPECT_EQ(s.samples_in, trace.size());
  EXPECT_EQ(s.memory_charged_bytes, 0u);
}

// The daemon at any hop emits exactly the batch events: a live ptrack_serve
// process at --hop 0.3 (30-sample hops), fed a faulted walk in 37-sample
// SAMPLES frames that straddle the hops.
TEST(NetServer, LiveDaemonMatchesBatch) {
  imu::Trace trace = walking_trace(40.0, 1101);
  Rng rng(1102);
  trace = imu::inject_dropouts(trace, 4.0, 10, 60, rng);
  trace = imu::clip_acceleration(trace, 25.0);
  const core::TrackResult batch = core::PTrack().process(trace);
  ASSERT_TRUE(batch.quality.degraded());
  ASSERT_GT(batch.events.size(), 30u);

  const std::string path =
      "/tmp/ptsrv_" + std::to_string(::getpid()) + "_live.sock";
  ::unlink(path.c_str());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::execl(PTRACK_SERVE_PATH, PTRACK_SERVE_PATH, "--uds", path.c_str(),
            "--hop", "0.3", "--quiet", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ClientConfig ccfg;
  ccfg.session_id = 11;
  ccfg.fs = trace.fs();
  ccfg.samples_per_frame = 37;
  ClientResult res;
  // Connecting fails until the daemon listens.
  const bool connected = wait_for(
      [&] {
        try {
          res = run_healthy_client(Endpoint::uds(path), ccfg,
                                   trace.samples());
          return true;
        } catch (const Error&) {
          return false;
        }
      },
      10.0);
  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ::unlink(path.c_str());
  ASSERT_TRUE(connected) << "ptrack_serve never accepted a connection";
  ASSERT_TRUE(res.ok) << res.detail;
  expect_wire_equal(res.events, batch.events);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(NetServer, SoakChaosCannotHarmHealthyNeighbors) {
  ServerConfig cfg;
  cfg.stall_timeout_s = 1.0;  // reclaim slowloris/truncation quickly
  cfg.idle_timeout_s = 20.0;
  ServerRunner runner(std::move(cfg), "soak", /*with_admin=*/true);

  constexpr std::size_t kHealthy = 8;
  const ChaosMode kModes[] = {
      ChaosMode::kTruncatedFrame,      ChaosMode::kCorruptMagic,
      ChaosMode::kCorruptPayload,      ChaosMode::kOversizedFrame,
      ChaosMode::kBadVersion,          ChaosMode::kSlowloris,
      ChaosMode::kMidStreamDisconnect, ChaosMode::kSamplesBeforeHello,
  };

  std::vector<imu::Trace> traces;
  for (std::size_t i = 0; i < kHealthy; ++i) {
    traces.push_back(walking_trace(20.0, 2000 + i));
  }

  std::vector<ClientResult> healthy(kHealthy);
  std::vector<ChaosResult> chaos(std::size(kModes));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kHealthy; ++i) {
    threads.emplace_back([&, i] {
      ClientConfig ccfg;
      ccfg.session_id = 100 + i;
      ccfg.fs = traces[i].fs();
      ccfg.timeout_s = 60.0;
      healthy[i] = run_healthy_client(runner.ep, ccfg, traces[i].samples());
    });
  }
  for (std::size_t i = 0; i < std::size(kModes); ++i) {
    threads.emplace_back([&, i] {
      ChaosConfig ccfg;
      ccfg.mode = kModes[i];
      ccfg.session_id = 900 + i;
      ccfg.slowloris_duration_s = 10.0;  // server must evict well before
      chaos[i] = run_chaos_client(runner.ep, ccfg);
    });
  }

  // Meanwhile the telemetry plane must keep answering every endpoint —
  // scraping a server under chaos fire is exactly its job description.
  std::atomic<bool> soak_done{false};
  std::size_t scrapes = 0;
  std::vector<std::string> scrape_failures;
  std::thread scraper([&] {
    const char* kTargets[] = {"/metrics", "/metrics.json", "/healthz",
                              "/readyz", "/sessions"};
    std::size_t i = 0;
    while (!soak_done.load(std::memory_order_acquire)) {
      const char* target = kTargets[i++ % std::size(kTargets)];
      const HttpGetResult r = http_get(runner.admin_ep, target, 10.0);
      ++scrapes;
      if (!r.ok || r.status != 200 || r.body.empty()) {
        scrape_failures.push_back(std::string(target) + ": " +
                                  (r.ok ? "status " + std::to_string(r.status)
                                        : r.error));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  for (std::thread& t : threads) t.join();
  soak_done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GE(scrapes, 10u);
  EXPECT_TRUE(scrape_failures.empty())
      << scrape_failures.size() << " failed scrapes, first: "
      << scrape_failures.front();
  EXPECT_GE(runner.server.stats().admin_requests, scrapes);

  // Every healthy client completed and matches its oracle exactly.
  for (std::size_t i = 0; i < kHealthy; ++i) {
    ASSERT_TRUE(healthy[i].ok)
        << "healthy client " << i << ": " << healthy[i].detail;
    expect_wire_equal(healthy[i].events,
                      oracle_events(traces[i], core::StreamingConfig{}));
    EXPECT_EQ(healthy[i].drained.samples_total, traces[i].size());
  }
  // Every chaos client saw the server react instead of hang.
  for (std::size_t i = 0; i < std::size(kModes); ++i) {
    EXPECT_TRUE(chaos[i].server_contained)
        << to_string(kModes[i]) << ": " << chaos[i].detail;
  }

  // No session leaks: the table and the memory accounting return to zero.
  EXPECT_TRUE(wait_for(
      [&] { return runner.server.stats().sessions_active == 0; }, 10.0));
  const ServerStats s = runner.server.stats();
  EXPECT_EQ(s.memory_charged_bytes, 0u);
  EXPECT_EQ(s.session_errors, 0u);
  EXPECT_GE(s.accepted, kHealthy + std::size(kModes) - 1);  // storm-free
  EXPECT_GE(s.frames_rejected, 5u);  // the malformed-frame chaos family
}

TEST(NetServer, ChaosGetsTypedErrors) {
  ServerRunner runner(ServerConfig{}, "typed");
  const auto run = [&](ChaosMode mode) {
    ChaosConfig ccfg;
    ccfg.mode = mode;
    return run_chaos_client(runner.ep, ccfg);
  };
  ChaosResult r = run(ChaosMode::kCorruptMagic);
  EXPECT_TRUE(r.server_contained) << r.detail;
  EXPECT_EQ(r.error, ErrorCode::kBadMagic);

  r = run(ChaosMode::kBadVersion);
  EXPECT_TRUE(r.server_contained) << r.detail;
  EXPECT_EQ(r.error, ErrorCode::kBadVersion);

  r = run(ChaosMode::kOversizedFrame);
  EXPECT_TRUE(r.server_contained) << r.detail;
  EXPECT_EQ(r.error, ErrorCode::kOversizedFrame);

  r = run(ChaosMode::kSamplesBeforeHello);
  EXPECT_TRUE(r.server_contained) << r.detail;
  EXPECT_EQ(r.error, ErrorCode::kProtocol);

  r = run(ChaosMode::kReHello);
  EXPECT_TRUE(r.server_contained) << r.detail;
  EXPECT_EQ(r.error, ErrorCode::kProtocol);

  r = run(ChaosMode::kCorruptPayload);
  EXPECT_TRUE(r.server_contained) << r.detail;
  EXPECT_EQ(r.error, ErrorCode::kMalformedFrame);
}

TEST(NetServer, StalledFrameIsEvicted) {
  ServerConfig cfg;
  cfg.stall_timeout_s = 0.3;
  ServerRunner runner(std::move(cfg), "stall");
  ChaosConfig ccfg;
  ccfg.mode = ChaosMode::kTruncatedFrame;
  ccfg.response_timeout_s = 5.0;
  const ChaosResult r = run_chaos_client(runner.ep, ccfg);
  EXPECT_TRUE(r.server_contained) << r.detail;
  EXPECT_EQ(r.error, ErrorCode::kIdleTimeout);
  EXPECT_TRUE(wait_for(
      [&] { return runner.server.stats().evicted_stall >= 1; }, 5.0));
}

TEST(NetServer, AdmissionShedsWhenTableFull) {
  ServerConfig cfg;
  cfg.max_sessions = 1;
  cfg.retry_after_s = 9;
  ServerRunner runner(std::move(cfg), "shed");

  // Occupy the single slot with a raw connection.
  Socket holder = connect_to(runner.ep);
  ASSERT_TRUE(wait_for(
      [&] { return runner.server.stats().sessions_active == 1; }, 5.0));

  const imu::Trace trace = walking_trace(5.0, 1003);
  ClientConfig ccfg;
  ccfg.fs = trace.fs();
  ccfg.timeout_s = 10.0;
  const ClientResult res =
      run_healthy_client(runner.ep, ccfg, trace.samples());
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, ErrorCode::kOverloaded);
  EXPECT_TRUE(wait_for(
      [&] { return runner.server.stats().shed >= 1; }, 5.0));

  holder.close();
  EXPECT_TRUE(wait_for(
      [&] { return runner.server.stats().sessions_active == 0; }, 5.0));
}

TEST(NetServer, SlowConsumerIsEvicted) {
  ServerConfig cfg;
  cfg.session.out_buf_limit = 8 * 1024;
  cfg.sndbuf_bytes = 4 * 1024;  // make the socket fill without megabytes
  cfg.slow_consumer_timeout_s = 0.5;
  cfg.idle_timeout_s = 30.0;
  ServerRunner runner(std::move(cfg), "slow");

  const imu::Trace trace = walking_trace(60.0, 1004);
  Socket sock = connect_to(runner.ep);
  sock.set_nonblocking(true);

  std::vector<std::uint8_t> tx;
  append_hello(tx, Hello{31, trace.fs(), 0});
  // Replay the minute of walking ten times without ever reading: the event
  // backlog must fill the shrunken socket buffer and trip the eviction.
  for (int rep = 0; rep < 10; ++rep) {
    std::size_t i = 0;
    while (i < trace.size()) {
      const std::size_t n = std::min<std::size_t>(1024, trace.size() - i);
      append_samples(tx, std::span<const imu::Sample>(
                             trace.samples().data() + i, n));
      i += n;
    }
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::span<const std::uint8_t> rest(tx);
  bool evicted_mid_write = false;
  while (!rest.empty() && std::chrono::steady_clock::now() < deadline) {
    std::size_t w = 0;
    try {
      w = sock.write_some(rest);
    } catch (const Error&) {
      evicted_mid_write = true;  // server hung up on us: also a pass
      break;
    }
    rest = rest.subspan(w);
    if (w == 0) {
      // Backpressured — exactly the state the eviction deadline watches.
      if (runner.server.stats().evicted_slow >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  EXPECT_TRUE(wait_for(
      [&] { return runner.server.stats().evicted_slow >= 1; }, 10.0));

  if (!evicted_mid_write) {
    // Drain everything the server managed to send; the stream must stay
    // decodable end-to-end and finish with the slow-consumer ERROR.
    FrameDecoder dec;
    std::vector<std::uint8_t> rx(16 * 1024);
    ErrorCode last_error = ErrorCode::kNone;
    const auto read_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < read_deadline) {
      std::ptrdiff_t n = 0;
      try {
        n = sock.read_some(rx);
      } catch (const Error&) {
        break;
      }
      if (n == 0) break;
      if (n < 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      dec.feed({rx.data(), static_cast<std::size_t>(n)});
      Frame frame;
      while (dec.next(frame) == DecodeStatus::kFrame) {
        if (frame.type == FrameType::kError) {
          WireError err;
          ASSERT_TRUE(parse_error(frame.payload, err));
          last_error = err.code;
        }
      }
      ASSERT_EQ(dec.error(), ErrorCode::kNone);
    }
    EXPECT_EQ(last_error, ErrorCode::kSlowConsumer);
  }
  sock.close();
  EXPECT_TRUE(wait_for(
      [&] { return runner.server.stats().sessions_active == 0; }, 5.0));
}

TEST(NetServer, ConnectionStormLeavesServerServing) {
  ServerRunner runner(ServerConfig{}, "storm");
  ChaosConfig ccfg;
  ccfg.mode = ChaosMode::kConnectionStorm;
  ccfg.storm_connections = 64;
  const ChaosResult r = run_chaos_client(runner.ep, ccfg);
  EXPECT_TRUE(r.server_contained) << r.detail;

  // The server is still fully functional for a healthy client.
  const imu::Trace trace = walking_trace(10.0, 1005);
  ClientConfig hcfg;
  hcfg.fs = trace.fs();
  const ClientResult res =
      run_healthy_client(runner.ep, hcfg, trace.samples());
  EXPECT_TRUE(res.ok) << res.detail;
  EXPECT_TRUE(wait_for(
      [&] { return runner.server.stats().sessions_active == 0; }, 10.0));
  EXPECT_EQ(runner.server.stats().memory_charged_bytes, 0u);
}

TEST(NetServer, DrainFlushesEveryLiveSession) {
  ServerConfig cfg;
  cfg.drain_deadline_s = 5.0;
  ServerRunner runner(std::move(cfg), "drain");
  const imu::Trace trace = walking_trace(20.0, 1006);

  ClientResult res;
  std::thread client([&] {
    ClientConfig ccfg;
    ccfg.session_id = 55;
    ccfg.fs = trace.fs();
    ccfg.send_bye = false;  // the *server* must initiate the flush
    ccfg.timeout_s = 30.0;
    res = run_healthy_client(runner.ep, ccfg, trace.samples());
  });

  // Wait until every sample is ingested, then drain (the SIGTERM path).
  ASSERT_TRUE(wait_for(
      [&] { return runner.server.stats().samples_in >= trace.size(); },
      20.0));
  runner.server.request_drain();
  client.join();

  ASSERT_TRUE(res.ok) << res.detail;
  expect_wire_equal(res.events,
                    oracle_events(trace, core::StreamingConfig{}));
  EXPECT_EQ(res.drained.samples_total, trace.size());

  // run() returns once the drain completes; the runner's stop is a no-op.
  EXPECT_TRUE(wait_for([&] { return !runner.server.running(); }, 10.0));
  EXPECT_EQ(runner.server.stats().sessions_active, 0u);
}
