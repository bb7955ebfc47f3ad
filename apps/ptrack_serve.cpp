// ptrack_serve: long-running ingest daemon. Devices connect over TCP or a
// Unix domain socket, speak the PTrack wire protocol (net/wire.hpp) and
// stream IMU samples; the daemon multiplexes every connection onto an
// incremental core::StreamingTracker and streams finalized step events
// back. net/server.hpp documents the robustness policy (admission control,
// backpressure, eviction, fault isolation, graceful drain).
//
// Usage:
//   ptrack_serve --uds /tmp/ptrack.sock
//   ptrack_serve --tcp 7440 [--host 0.0.0.0]
//
// Lifecycle: the daemon prints one "listening on ..." line to stdout once
// every endpoint is bound (CI waits for it), then serves until SIGTERM or
// SIGINT. Both signals trigger a graceful drain: stop accepting, flush
// every live tracker's finalization margins as EVENT/DRAINED frames, then
// exit 0. A second signal is not needed — the drain deadline bounds the
// shutdown.
//
// Observability (DESIGN.md §17):
//   * --admin-uds / --admin-tcp bind the read-only HTTP admin plane
//     (GET /metrics, /metrics.json, /healthz, /readyz, /sessions) inside
//     the same reactor; tools/ptrack_top watches it live.
//   * --log-level SPEC sets structured-logging levels ("debug" or
//     "info,net=debug"); records are JSON lines on stderr.
//   * --metrics-out FILE writes a ptrack.metrics.v1 snapshot (the same
//     schema as ptrack_cli) after the drain, covering the ptrack.net.*
//     counters; tools/obs_check --net-metrics validates it. SIGUSR1 dumps
//     the same snapshot (plus buffered log records) on demand, without
//     draining the server.

#include <cstdint>
#include <cstdio>
#include <csignal>
#include <fcntl.h>
#include <fstream>
#include <iostream>
#include <string>
#include <unistd.h>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

using namespace ptrack;

namespace {

/// Write end of the signal self-pipe; the only state a handler touches.
volatile int g_signal_pipe_wr = -1;

extern "C" void on_shutdown_signal(int) {
  // async-signal-safe: one write(2), no locks, no allocation.
  const std::uint8_t byte = 1;
  if (g_signal_pipe_wr >= 0) {
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe_wr, &byte, 1);
  }
}

extern "C" void on_dump_signal(int) {
  // Byte 2 = dump request: the reactor invokes cfg.dump_hook, so the
  // snapshot is written on the reactor thread, not in the handler.
  const std::uint8_t byte = 2;
  if (g_signal_pipe_wr >= 0) {
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe_wr, &byte, 1);
  }
}

void write_metrics(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open " + path);
  obs::write_metrics_document(out);
}

int run(const cli::Args& args) {
  if (!obs::log::apply_level_spec(args.get_string("log-level"))) {
    std::cerr << "ptrack_serve: bad --log-level (want \"debug\" or "
                 "\"info,net=debug\")\n";
    return 2;
  }

  net::ServerConfig cfg;
  cfg.max_sessions = static_cast<std::size_t>(args.get_int("max-sessions"));
  cfg.memory_budget_bytes =
      static_cast<std::size_t>(args.get_int("memory-budget-mb")) << 20;
  cfg.idle_timeout_s = args.get_double("idle-timeout");
  cfg.stall_timeout_s = args.get_double("stall-timeout");
  cfg.drain_deadline_s = args.get_double("drain-deadline");
  cfg.session.streaming.hop_s = args.get_double("hop");

  // SIGUSR1 snapshot: runs on the reactor thread between poll iterations,
  // so it sees a consistent registry and may use streams freely.
  const std::string metrics_path =
      args.has("metrics-out") ? args.get_string("metrics-out") : "";
  cfg.dump_hook = [&metrics_path]() {
    if (metrics_path.empty()) {
      PTRACK_LOG_WARN("serve", "dump_skipped",
                      kv("reason", "no --metrics-out path"));
      return;
    }
    write_metrics(metrics_path);
    obs::log::drain();
    PTRACK_LOG_INFO("serve", "metrics_dumped",
                    kv("path", metrics_path.c_str()));
  };

  // Signal self-pipe: the handler writes one byte, the reactor's poll set
  // sees the read end become readable and starts the drain.
  int sig_pipe[2];
  if (::pipe(sig_pipe) != 0) {
    std::cerr << "ptrack_serve: cannot create the signal pipe\n";
    return 1;
  }
  for (const int fd : {sig_pipe[0], sig_pipe[1]}) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  g_signal_pipe_wr = sig_pipe[1];
  cfg.shutdown_fd = sig_pipe[0];

  struct sigaction sa = {};
  sa.sa_handler = on_shutdown_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  struct sigaction sa_dump = {};
  sa_dump.sa_handler = on_dump_signal;
  ::sigemptyset(&sa_dump.sa_mask);
  ::sigaction(SIGUSR1, &sa_dump, nullptr);

  net::Server server(std::move(cfg));
  if (args.has("uds")) {
    server.listen(net::Endpoint::uds(args.get_string("uds")));
    std::cout << "ptrack_serve: listening on uds:" << args.get_string("uds")
              << "\n";
  }
  if (args.has("tcp")) {
    const long port = args.get_int("tcp");
    if (port < 0 || port > 65535) {
      std::cerr << "ptrack_serve: --tcp out of range\n";
      return 2;
    }
    server.listen(net::Endpoint::tcp(
        args.get_string("host"), static_cast<std::uint16_t>(port)));
    std::cout << "ptrack_serve: listening on tcp:" << args.get_string("host")
              << ":" << server.tcp_port() << "\n";
  }
  if (args.has("admin-uds")) {
    server.listen_admin(net::Endpoint::uds(args.get_string("admin-uds")));
    std::cout << "ptrack_serve: admin on uds:" << args.get_string("admin-uds")
              << "\n";
  }
  if (args.has("admin-tcp")) {
    const long port = args.get_int("admin-tcp");
    if (port < 0 || port > 65535) {
      std::cerr << "ptrack_serve: --admin-tcp out of range\n";
      return 2;
    }
    server.listen_admin(net::Endpoint::tcp(
        args.get_string("host"), static_cast<std::uint16_t>(port)));
    std::cout << "ptrack_serve: admin on tcp:" << args.get_string("host")
              << ":" << server.admin_tcp_port() << "\n";
  }
  std::cout.flush();

  server.run();  // returns after a completed drain (SIGTERM/SIGINT)

  if (!metrics_path.empty()) write_metrics(metrics_path);
  obs::log::drain();  // flush records buffered since the reactor exited

  if (!args.get_bool("quiet")) {
    const net::ServerStats s = server.stats();
    std::cout << "ptrack_serve: drained. accepted=" << s.accepted
              << " shed=" << s.shed << " closed=" << s.closed
              << " evicted=" << (s.evicted_idle + s.evicted_stall +
                                 s.evicted_slow)
              << " session_errors=" << s.session_errors
              << " frames_ok=" << s.frames_ok
              << " frames_rejected=" << s.frames_rejected
              << " samples=" << s.samples_in << " events=" << s.events_out
              << "\n";
  }
  g_signal_pipe_wr = -1;
  ::close(sig_pipe[0]);
  ::close(sig_pipe[1]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<cli::OptionSpec> specs = {
      {"uds", "listen on a Unix domain socket at this path", "", false},
      {"tcp", "listen on this TCP port (0 = ephemeral)", "", false},
      {"host", "TCP bind address", "127.0.0.1", false},
      {"max-sessions", "admission limit on concurrent sessions", "4096",
       false},
      {"memory-budget-mb", "global session-memory budget (MiB)", "512",
       false},
      {"idle-timeout", "evict after this many seconds without a complete "
                       "frame", "30", false},
      {"stall-timeout", "deadline (s) for a partial frame or an unfinished "
                        "HELLO", "10", false},
      {"drain-deadline", "graceful-shutdown flush budget (s)", "2", false},
      {"hop", "streaming hop interval (s)", "1", false},
      {"admin-uds", "serve the HTTP admin plane on a Unix domain socket "
                    "at this path", "", false},
      {"admin-tcp", "serve the HTTP admin plane on this TCP port "
                    "(0 = ephemeral)", "", false},
      {"log-level", "structured-log levels: LEVEL or "
                    "LEVEL,subsys=LEVEL,...", "info", false},
      {"metrics-out", "write a metrics snapshot (JSON) here after the "
                      "drain (and on SIGUSR1)", "", false},
      {"quiet", "suppress the exit summary", "", true},
  };
  try {
    const cli::Args args(argc, argv, specs);
    if (args.help_requested()) {
      std::cout << args.usage("ptrack_serve");
      return 0;
    }
    if (!args.has("uds") && !args.has("tcp")) {
      std::cerr << "ptrack_serve: need --uds and/or --tcp\n"
                << args.usage("ptrack_serve");
      return 2;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "ptrack_serve: " << e.what() << "\n";
    return 1;
  }
}
