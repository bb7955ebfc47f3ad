// ptrack_serve's engine: a single-threaded poll(2) reactor multiplexing
// many device connections onto incremental streaming pipelines.
//
// Why single-threaded: a steady-state 2 s stream hop costs ~46 µs p50, flat
// with stream age (bench/micro_streaming on a 4-vCPU AVX2 host,
// BENCH_streaming.json), so one core sustains ~28k live 100 Hz streams;
// in a traced serve_uds run a 1 s hop costs ~24 µs p50. The reactor stays
// allocation-light, lock-free on the steady hop path and trivially
// convincible about fault isolation (no cross-session mutable state to
// corrupt: the objects sessions share, the gravity weight tables of their
// fs, are immutable, and their registry lock is taken only on a stream's
// warm-up hops). Scale-out is process-per-core behind SO_REUSEPORT, not
// threads in this loop.
//
// Overload & failure policy (DESIGN.md §16):
//   * Admission: a new connection is shed with ERROR{kOverloaded,
//     RETRY-AFTER} when the session table is full or the global memory
//     budget (sum of per-session estimates) is exhausted. Budgets are
//     re-checked at HELLO time, when the session's true sample rate is
//     known.
//   * Backpressure: the server stops reading a connection whose output
//     backlog crosses half the slow-consumer limit — the kernel socket
//     buffer fills and TCP/UDS flow control pushes back on the device.
//     Crossing the full limit disconnects the client (kSlowConsumer).
//   * Eviction: no complete frame within idle_timeout_s, a partial frame
//     older than stall_timeout_s (slowloris), or a connection that never
//     completes HELLO within stall_timeout_s.
//   * Fault isolation: any exception escaping a session's pipeline is
//     caught per-connection and closes only that session.
//   * Drain: request_drain() (or a readable shutdown_fd — the signal-safe
//     hook ptrack_serve's SIGTERM handler writes to) stops accepting,
//     flushes every open tracker through StreamingTracker::drain_into,
//     writes the final EVENT/DRAINED frames within drain_deadline_s and
//     returns from run().

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/http.hpp"
#include "net/session.hpp"
#include "net/socket.hpp"

namespace ptrack::net {

struct ServerConfig {
  SessionConfig session{};
  std::size_t max_sessions = 4096;
  /// Global budget over the sum of session_memory_estimate() charges.
  std::size_t memory_budget_bytes = std::size_t{512} << 20;
  double idle_timeout_s = 30.0;
  /// Slowloris / handshake deadline: a partial frame or an incomplete
  /// HELLO may pend at most this long.
  double stall_timeout_s = 10.0;
  /// Slow-consumer deadline: a connection may stay backpressured (output
  /// backlog at or above half out_buf_limit) at most this long before it
  /// is disconnected. Crossing the full limit disconnects immediately.
  double slow_consumer_timeout_s = 5.0;
  /// Graceful-drain budget for flushing final frames on shutdown.
  double drain_deadline_s = 2.0;
  /// RETRY-AFTER hint carried by admission-shed ERROR frames (s).
  std::uint16_t retry_after_s = 5;
  /// SO_SNDBUF applied to accepted sockets (0 = kernel default). Tests
  /// shrink it to exercise the slow-consumer path without megabytes of
  /// event traffic.
  std::size_t sndbuf_bytes = 0;
  /// Readable => act. The async-signal-safe control hook: ptrack_serve
  /// installs a self-pipe whose write end its signal handlers write to.
  /// Byte value 2 invokes dump_hook on the reactor thread (SIGUSR1
  /// snapshot); any other byte requests a drain (SIGTERM/SIGINT).
  /// -1 disables. Not owned by the server.
  int shutdown_fd = -1;
  /// Invoked on the reactor thread when shutdown_fd receives byte 2 —
  /// ptrack_serve's on-demand metrics + log dump. May be empty.
  std::function<void()> dump_hook;
  /// Admission budget of the read-only HTTP admin plane (listen_admin).
  /// Separate from max_sessions so scrapers can never crowd out ingest
  /// and vice versa. Excess admin connections get an immediate 503.
  std::size_t admin_max_sessions = 8;
};

/// Snapshot of the server's lifetime counters (thread-safe to take while
/// run() is live; values are relaxed-atomic reads).
struct ServerStats {
  std::uint64_t accepted = 0;        ///< connections admitted
  std::uint64_t shed = 0;            ///< refused by admission control
  std::uint64_t evicted_idle = 0;
  std::uint64_t evicted_stall = 0;   ///< slowloris / handshake deadline
  std::uint64_t evicted_slow = 0;    ///< slow consumers disconnected
  std::uint64_t closed = 0;          ///< sessions fully torn down
  std::uint64_t session_errors = 0;  ///< pipeline exceptions contained
  std::uint64_t frames_ok = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t samples_in = 0;
  std::uint64_t events_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t admin_requests = 0;  ///< admin-plane requests answered
  std::uint64_t admin_shed = 0;      ///< admin connections refused (503)
  std::size_t sessions_active = 0;
  std::size_t memory_charged_bytes = 0;
};

class Server {
 public:
  explicit Server(ServerConfig cfg = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds a listener; call before run(), repeatable (e.g. UDS + TCP).
  void listen(const Endpoint& ep);
  /// Port of the most recent kTcp listener (resolves port 0).
  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }

  /// Binds a read-only HTTP admin listener (GET /metrics, /metrics.json,
  /// /healthz, /readyz, /sessions — see net/admin.hpp). Served inside the
  /// same reactor with its own admission budget; stays up during drain so
  /// operators can watch it finish.
  void listen_admin(const Endpoint& ep);
  /// Port of the most recent kTcp admin listener (resolves port 0).
  [[nodiscard]] std::uint16_t admin_tcp_port() const {
    return admin_tcp_port_;
  }

  /// Runs the reactor until request_stop() or a completed drain. Throws
  /// only on reactor-level failures (socket layer breakage), never on
  /// client misbehavior.
  void run();

  /// Immediate shutdown: close everything, no flushes. Thread-safe.
  void request_stop();
  /// Graceful shutdown: stop accepting, flush every session's pipeline,
  /// then return from run(). Thread-safe.
  void request_drain();

  [[nodiscard]] ServerStats stats() const;
  /// True between run() entry and exit (tests use it to await startup).
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    Socket sock;
    Session session;
    Clock::time_point established;  ///< accept time (/sessions uptime)
    Clock::time_point last_frame_activity;
    Clock::time_point stall_since;  ///< mid-frame or pre-HELLO onset
    bool stalled = false;
    Clock::time_point backpressure_since;  ///< backlog >= limit/2 onset
    bool backpressured = false;
    Clock::time_point linger_deadline;
    bool closing = false;           ///< flush out, then close
    std::size_t charged = 0;        ///< memory admission charge
    bool hello_charged = false;     ///< charge upgraded after HELLO

    Conn(Socket s, const SessionConfig& cfg, Clock::time_point now)
        : sock(std::move(s)), session(cfg), established(now),
          last_frame_activity(now), stall_since(now), linger_deadline(now) {}
  };

  /// An admin connection must complete request + response within this (s).
  static constexpr double kAdminTimeoutS = 5.0;

  /// One admin-plane connection: parse one GET, queue one response,
  /// flush, close. Defined alongside the route logic in net/admin.cpp.
  struct AdminConn {
    Socket sock;
    HttpRequestParser parser;
    std::string out;            ///< complete response once responded
    std::size_t out_pos = 0;
    Clock::time_point since;    ///< accept time (kAdminTimeoutS clock)
    bool responded = false;

    AdminConn(Socket s, Clock::time_point now)
        : sock(std::move(s)), since(now) {}
  };

  void accept_pending(const Socket& listener);
  void shed_connection(Socket sock);
  void handle_readable(Conn& conn);
  void handle_writable(Conn& conn);
  void begin_close(Conn& conn);
  void enforce_deadlines(Clock::time_point now);
  void enter_drain(Clock::time_point now);
  void close_marked();
  void charge(Conn& conn);
  void publish_gauges();
  void drain_wakeup_fd(int fd);
  void service_shutdown_fd();

  // Admin plane (net/admin.cpp).
  void accept_admin_pending(const Socket& listener);
  void handle_admin_readable(AdminConn& conn);
  void handle_admin_writable(AdminConn& conn);
  void build_admin_response(AdminConn& conn, HttpParseStatus status);
  void enforce_admin_deadlines(Clock::time_point now);
  void close_marked_admin();
  void teardown_admin();

  ServerConfig cfg_;
  std::vector<Socket> listeners_;
  std::vector<Endpoint> endpoints_;
  std::uint16_t tcp_port_ = 0;
  std::unordered_map<int, Conn> conns_;
  std::vector<int> to_close_;        ///< fds marked dead this iteration
  std::vector<std::uint8_t> read_buf_;

  std::vector<Socket> admin_listeners_;
  std::vector<Endpoint> admin_endpoints_;
  std::uint16_t admin_tcp_port_ = 0;
  std::unordered_map<int, AdminConn> admin_conns_;
  std::vector<int> admin_to_close_;
  Clock::time_point start_time_{};   ///< run() entry (uptime reporting)

  int wake_rd_ = -1;                 ///< self-pipe (request_stop/drain)
  int wake_wr_ = -1;
  std::atomic<bool> stop_flag_{false};
  std::atomic<bool> drain_flag_{false};
  bool draining_ = false;
  Clock::time_point drain_deadline_{};
  std::atomic<bool> running_{false};

  std::size_t memory_charged_ = 0;

  // Lifetime counters (relaxed atomics: written by the reactor thread,
  // snapshot by stats() from anywhere).
  struct Counters {
    std::atomic<std::uint64_t> accepted{0}, shed{0}, evicted_idle{0},
        evicted_stall{0}, evicted_slow{0}, closed{0}, session_errors{0},
        frames_ok{0}, frames_rejected{0}, samples_in{0}, events_out{0},
        bytes_in{0}, bytes_out{0}, admin_requests{0}, admin_shed{0};
    std::atomic<std::size_t> active{0}, memory_charged{0};
  };
  Counters counters_;
};

}  // namespace ptrack::net
