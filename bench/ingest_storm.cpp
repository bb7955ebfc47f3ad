// Ingest-storm benchmark: does a crowd of faulty clients degrade the
// service healthy devices get from ptrack_serve?
//
// Method: a real net::Server runs its reactor on a Unix domain socket.
// Phase A streams N healthy clients (synthetic walking traces) through it
// and records, per SAMPLES frame, the wall-clock time to hand the frame to
// the server (the write completes only once the kernel buffer has room,
// so server-side backpressure shows up directly in this number). Phase B
// repeats the identical healthy workload while M chaos clients per mode
// cycle (corrupt frames, slowloris drips, oversized headers, mid-stream
// disconnects, protocol violations) hammer the same listener in a loop for
// the whole phase. Phase C repeats phase B while a scraper thread polls
// the HTTP admin plane (/metrics, /metrics.json, /sessions, /healthz) at
// 10 Hz — the telemetry-overhead configuration. All phases also verify
// full protocol completion (HELLO_ACK .. DRAINED) and count emitted
// events.
//
// Flags:
//   --reduced     fewer clients, shorter traces (the CI smoke configuration)
//   --gate        fail (exit 1) unless ALL hold:
//                   1. chaos-phase healthy p99 frame latency <= 1.2x the
//                      healthy-only p99 (plus a 300 us absolute floor so
//                      sub-millisecond scheduler noise cannot flake CI);
//                   2. scraped-phase healthy p99 <= 1.1x the unscraped
//                      chaos p99 (same floor) — a 10 Hz scrape may not
//                      tax ingest;
//                   3. every scrape answered (zero failures);
//                   4. every healthy client in all phases completed the
//                      full protocol with the expected event count.
//   --json PATH   write {"bench":"ingest_storm","host":{...},"metrics":{...}}
//                 (also via the PTRACK_BENCH_JSON environment variable);
//                 "host" is the machine block (bench::write_host) with
//                 workers = 1, the server's single reactor thread

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "net/chaos.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;
using Clock = std::chrono::steady_clock;

namespace {

struct HealthyOutcome {
  bool ok = false;
  std::vector<double> frame_us;  ///< per-SAMPLES-frame handoff latency
  std::size_t events = 0;
  double wall_s = 0.0;
};

/// An instrumented healthy device: nonblocking socket, every SAMPLES frame
/// timed from first write attempt to full handoff, EVENT frames drained
/// between writes, BYE -> DRAINED at the end.
HealthyOutcome run_timed_client(const net::Endpoint& ep, std::uint64_t sid,
                                const imu::Trace& trace) {
  HealthyOutcome out;
  const auto start = Clock::now();
  net::Socket sock = net::connect_to(ep);
  sock.set_nonblocking(true);

  net::FrameDecoder decoder;
  std::vector<std::uint8_t> rx(16 * 1024);
  bool acked = false;
  bool drained = false;
  bool failed = false;
  std::size_t events = 0;
  const auto pump = [&] {
    while (!failed) {
      std::ptrdiff_t n = 0;
      try {
        n = sock.read_some(rx);
      } catch (const Error&) {
        failed = true;
        return;
      }
      if (n < 0) return;   // nothing pending
      if (n == 0) {        // server closed
        failed = !drained;
        return;
      }
      decoder.feed({rx.data(), static_cast<std::size_t>(n)});
      net::Frame frame;
      while (decoder.next(frame) == net::DecodeStatus::kFrame) {
        if (frame.type == net::FrameType::kHelloAck) acked = true;
        if (frame.type == net::FrameType::kError) failed = true;
        if (frame.type == net::FrameType::kDrained) drained = true;
        if (frame.type == net::FrameType::kEvent) {
          std::vector<core::StepEvent> ev;
          if (net::parse_events(frame.payload, ev)) events += ev.size();
        }
      }
      if (decoder.error() != net::ErrorCode::kNone) failed = true;
    }
  };
  const auto send_timed = [&](std::span<const std::uint8_t> bytes,
                              bool timed) {
    const auto t0 = Clock::now();
    std::span<const std::uint8_t> rest = bytes;
    while (!rest.empty() && !failed) {
      std::size_t w = 0;
      try {
        w = sock.write_some(rest);
      } catch (const Error&) {
        failed = true;
        return;
      }
      rest = rest.subspan(w);
      pump();
      if (w == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (timed) {
      out.frame_us.push_back(
          1e6 *
          std::chrono::duration<double>(Clock::now() - t0).count());
    }
  };

  std::vector<std::uint8_t> tx;
  net::append_hello(tx, net::Hello{sid, trace.fs(), 0});
  send_timed(tx, false);
  constexpr std::size_t kPerFrame = 256;
  for (std::size_t i = 0; i < trace.size() && !failed; i += kPerFrame) {
    const std::size_t n = std::min(kPerFrame, trace.size() - i);
    tx.clear();
    net::append_samples(
        tx, std::span<const imu::Sample>(trace.samples().data() + i, n));
    send_timed(tx, true);
  }
  tx.clear();
  net::append_bye(tx);
  send_timed(tx, false);
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (!drained && !failed && Clock::now() < deadline) {
    pump();
    if (!drained) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  out.ok = acked && drained && !failed;
  out.events = events;
  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

struct PhaseResult {
  std::string name;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double events_per_s = 0.0;
  std::size_t events = 0;
  std::size_t healthy_ok = 0;
  std::size_t chaos_runs = 0;
  std::size_t scrapes = 0;
  std::size_t scrape_failures = 0;
  double wall_s = 0.0;
};

PhaseResult run_phase(const std::string& name, const net::Endpoint& ep,
                      const std::vector<imu::Trace>& traces,
                      std::size_t chaos_threads,
                      const net::Endpoint* admin_ep = nullptr) {
  PhaseResult res;
  res.name = name;
  const auto start = Clock::now();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> scrapes{0};
  std::atomic<std::size_t> scrape_failures{0};
  std::thread scraper;
  if (admin_ep != nullptr) {
    // 10 Hz rotation over every admin route — the documented operating
    // point of an external metrics collector plus a ptrack_top.
    scraper = std::thread([&] {
      const char* kTargets[] = {"/metrics", "/metrics.json", "/sessions",
                                "/healthz"};
      std::size_t k = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const net::HttpGetResult r =
            net::http_get(*admin_ep, kTargets[k++ % std::size(kTargets)]);
        scrapes.fetch_add(1, std::memory_order_relaxed);
        if (!r.ok || r.status != 200 || r.body.empty()) {
          scrape_failures.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }
  std::atomic<std::size_t> chaos_runs{0};
  std::vector<std::thread> chaos;
  const net::ChaosMode kModes[] = {
      net::ChaosMode::kTruncatedFrame,
      net::ChaosMode::kCorruptMagic,
      net::ChaosMode::kCorruptPayload,
      net::ChaosMode::kOversizedFrame,
      net::ChaosMode::kBadVersion,
      net::ChaosMode::kSlowloris,
      net::ChaosMode::kMidStreamDisconnect,
      net::ChaosMode::kSamplesBeforeHello,
  };
  for (std::size_t i = 0; i < chaos_threads; ++i) {
    chaos.emplace_back([&, i] {
      std::size_t k = i;
      while (!stop.load(std::memory_order_relaxed)) {
        net::ChaosConfig ccfg;
        ccfg.mode = kModes[k++ % std::size(kModes)];
        ccfg.session_id = 0xC4A05000 + i;
        ccfg.slowloris_duration_s = 0.5;
        ccfg.slowloris_byte_interval_s = 0.01;
        ccfg.response_timeout_s = 5.0;
        static_cast<void>(net::run_chaos_client(ep, ccfg));
        chaos_runs.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<HealthyOutcome> outcomes(traces.size());
  std::vector<std::thread> healthy;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    healthy.emplace_back([&, i] {
      outcomes[i] = run_timed_client(ep, 1 + i, traces[i]);
    });
  }
  for (std::thread& t : healthy) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : chaos) t.join();
  if (scraper.joinable()) scraper.join();
  res.scrapes = scrapes.load();
  res.scrape_failures = scrape_failures.load();

  std::vector<double> all_us;
  for (const HealthyOutcome& o : outcomes) {
    res.healthy_ok += o.ok ? 1 : 0;
    res.events += o.events;
    all_us.insert(all_us.end(), o.frame_us.begin(), o.frame_us.end());
  }
  res.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  if (!all_us.empty()) {
    res.p50_us = stats::percentile(all_us, 50.0);
    res.p90_us = stats::percentile(all_us, 90.0);
    res.p99_us = stats::percentile(all_us, 99.0);
  }
  res.events_per_s =
      res.wall_s > 0.0 ? static_cast<double>(res.events) / res.wall_s : 0.0;
  res.chaos_runs = chaos_runs.load();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    cli::Args args(
        argc, argv,
        {{"reduced", "fewer clients, shorter traces (CI smoke)", "", true},
         {"gate",
          "fail unless chaos leaves healthy p99 frame latency within 1.2x "
          "of the healthy-only phase and all clients complete",
          "", true},
         {"json", "output JSON path (overrides PTRACK_BENCH_JSON)", "",
          false}});
    if (args.help_requested()) {
      std::cout << args.usage("ingest_storm");
      return 0;
    }
    const bool reduced = args.get_bool("reduced");
    const bool gate = args.get_bool("gate");
    const std::size_t n_healthy = reduced ? 4 : 8;
    const std::size_t n_chaos = reduced ? 4 : 8;
    const double trace_s = reduced ? 20.0 : 60.0;

    const auto users = bench::make_users(n_healthy);
    std::vector<imu::Trace> traces;
    for (std::size_t i = 0; i < n_healthy; ++i) {
      Rng rng(bench::kBenchSeed ^ (0x1157 + i));
      traces.push_back(
          synth::synthesize(synth::Scenario::pure_walking(trace_s),
                            users[i], bench::standard_options(), rng)
              .trace);
    }

    net::ServerConfig cfg;
    cfg.stall_timeout_s = 0.5;  // reclaim chaos stalls fast enough to loop
    net::Server server(std::move(cfg));
    const net::Endpoint ep = net::Endpoint::uds(
        "/tmp/ptrack_ingest_storm_" + std::to_string(::getpid()) + ".sock");
    const net::Endpoint admin_ep = net::Endpoint::uds(
        "/tmp/ptrack_ingest_storm_" + std::to_string(::getpid()) +
        ".admin.sock");
    server.listen(ep);
    server.listen_admin(admin_ep);
    std::thread reactor([&] { server.run(); });
    while (!server.running()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const PhaseResult a = run_phase("healthy_only", ep, traces, 0);
    const PhaseResult b = run_phase("healthy_plus_chaos", ep, traces,
                                    n_chaos);
    const PhaseResult c = run_phase("healthy_chaos_scraped", ep, traces,
                                    n_chaos, &admin_ep);
    server.request_stop();
    reactor.join();

    std::printf(
        "ingest_storm: %zu healthy x %.0f s traces, %zu chaos threads in "
        "phases B/C, 10 Hz admin scraping in phase C\n",
        n_healthy, trace_s, n_chaos);
    std::printf("  %-22s %10s %10s %10s %12s %9s %8s %6s\n", "phase",
                "p50 us", "p90 us", "p99 us", "events/s", "chaos",
                "scrapes", "ok");
    for (const PhaseResult* p : {&a, &b, &c}) {
      std::printf(
          "  %-22s %10.1f %10.1f %10.1f %12.1f %9zu %8zu %3zu/%zu\n",
          p->name.c_str(), p->p50_us, p->p90_us, p->p99_us, p->events_per_s,
          p->chaos_runs, p->scrapes, p->healthy_ok, n_healthy);
    }

    const double allowed_p99 = 1.2 * a.p99_us + 300.0;
    const bool p99_held = b.p99_us <= allowed_p99;
    const double allowed_scraped_p99 = 1.1 * b.p99_us + 300.0;
    const bool scrape_overhead_held = c.p99_us <= allowed_scraped_p99;
    const bool scrapes_ok = c.scrapes > 0 && c.scrape_failures == 0;
    const bool all_ok = a.healthy_ok == n_healthy &&
                        b.healthy_ok == n_healthy &&
                        c.healthy_ok == n_healthy;
    std::printf("  chaos p99 %.1f us vs allowed %.1f us (%s)\n", b.p99_us,
                allowed_p99, p99_held ? "ok" : "VIOLATION");
    std::printf(
        "  scraped p99 %.1f us vs allowed %.1f us (%s), %zu scrapes, "
        "%zu failed (%s)\n",
        c.p99_us, allowed_scraped_p99,
        scrape_overhead_held ? "ok" : "VIOLATION", c.scrapes,
        c.scrape_failures, scrapes_ok ? "ok" : "VIOLATION");
    const net::ServerStats stats = server.stats();

    std::string path = "BENCH_ingest.json";
    if (args.has("json")) {
      path = args.get_string("json");
    } else if (const char* env = std::getenv("PTRACK_BENCH_JSON")) {
      path = env;
    }
    {
      std::ofstream out(path);
      if (!out) throw Error("ingest_storm: cannot open " + path);
      json::Writer w(out);
      w.begin_object();
      w.key("bench").value(std::string("ingest_storm"));
      bench::write_host(w, 1);
      w.key("metrics").begin_object();
      w.key("reduced").value(reduced);
      w.key("healthy_clients").value(n_healthy);
      w.key("chaos_threads").value(n_chaos);
      w.key("trace_s").value(trace_s);
      for (const PhaseResult* p : {&a, &b, &c}) {
        w.key(p->name + "_frame_p50_us").value(p->p50_us);
        w.key(p->name + "_frame_p90_us").value(p->p90_us);
        w.key(p->name + "_frame_p99_us").value(p->p99_us);
        w.key(p->name + "_events_per_s").value(p->events_per_s);
        w.key(p->name + "_events").value(p->events);
        w.key(p->name + "_healthy_ok").value(p->healthy_ok);
        w.key(p->name + "_chaos_runs").value(p->chaos_runs);
        w.key(p->name + "_wall_s").value(p->wall_s);
      }
      w.key("scrapes").value(c.scrapes);
      w.key("scrape_failures").value(c.scrape_failures);
      w.key("p99_degradation_held").value(p99_held);
      w.key("scrape_overhead_held").value(scrape_overhead_held);
      w.key("all_healthy_completed").value(all_ok);
      w.key("server_accepted").value(stats.accepted);
      w.key("server_frames_rejected").value(stats.frames_rejected);
      w.key("server_evictions").value(stats.evicted_idle +
                                      stats.evicted_stall +
                                      stats.evicted_slow);
      w.end_object();
      w.end_object();
      out << '\n';
    }
    std::printf("wrote %s\n", path.c_str());

    if (gate && !(p99_held && scrape_overhead_held && scrapes_ok &&
                  all_ok)) {
      std::printf("INGEST GATE VIOLATION\n");
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "ingest_storm: " << e.what() << "\n";
    return 1;
  }
}
