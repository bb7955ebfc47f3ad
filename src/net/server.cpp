#include "net/server.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <exception>
#include <fcntl.h>
#include <poll.h>
#include <span>
#include <unistd.h>

#include "common/check.hpp"
#include "common/error.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace ptrack::net {

namespace {

/// Reactor tick: deadlines are seconds-scale, so a coarse poll timeout
/// costs nothing while keeping the loop responsive to stop/drain.
constexpr int kPollTimeoutMs = 50;
/// How long a closing connection may linger to flush its final frames.
constexpr double kLingerS = 1.0;

void observe_queue_depth(std::size_t depth) {
  if (!obs::enabled()) return;
  static constexpr std::array<double, 6> kBounds = {
      256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0};
  static obs::Histogram& h = obs::Registry::instance().histogram(
      "ptrack.net.queue.depth_bytes",
      std::span<const double>(kBounds.data(), kBounds.size()));
  h.observe(static_cast<double>(depth));
}

}  // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw Error(std::string("Server: pipe: ") + std::strerror(errno));
  }
  wake_rd_ = fds[0];
  wake_wr_ = fds[1];
  for (const int fd : {wake_rd_, wake_wr_}) {
    const int flags = fcntl(fd, F_GETFL, 0);
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  read_buf_.resize(kReadChunkBytes);
}

Server::~Server() {
  close_listeners(true);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

void Server::listen(const Endpoint& ep) { bind_listener(ep, false); }

void Server::listen_admin(const Endpoint& ep) { bind_listener(ep, true); }

void Server::bind_listener(const Endpoint& ep, bool admin) {
  expects(!running_.load(std::memory_order_acquire),
          "Server::listen: bind before run()");
  Socket s = listen_on(ep);
  if (ep.kind == Endpoint::Kind::kTcp) {
    (admin ? admin_tcp_port_ : tcp_port_) = local_port(s);
  }
  // ptrack-lint: allow(alloc) bind-time setup, before the reactor runs
  listeners_.push_back(Listener{std::move(s), ep, admin});
}

void Server::close_listeners(bool admin_too) {
  for (Listener& l : listeners_) {
    if (!l.sock.valid() || (l.admin && !admin_too)) continue;
    l.sock.close();
    unlink_uds(l.ep);
  }
}

void Server::Tally::add(std::uint64_t n) {
  if (n == 0) return;
  value_.fetch_add(n, std::memory_order_relaxed);
  if (!obs::enabled()) return;
  if (registry_ == nullptr) {
    registry_ = &obs::Registry::instance().counter(metric_);
  }
  registry_->inc(n);
}

void Server::request_stop() {
  stop_flag_.store(true, std::memory_order_release);
  const std::uint8_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &one, 1);
}

void Server::request_drain() {
  drain_flag_.store(true, std::memory_order_release);
  const std::uint8_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &one, 1);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = counters_.accepted.load();
  s.shed = counters_.shed.load();
  s.evicted_idle = counters_.evicted_idle.load();
  s.evicted_stall = counters_.evicted_stall.load();
  s.evicted_slow = counters_.evicted_slow.load();
  s.closed = counters_.closed.load();
  s.session_errors = counters_.session_errors.load();
  s.frames_ok = counters_.frames_ok.load();
  s.frames_rejected = counters_.frames_rejected.load();
  s.samples_in = counters_.samples_in.load();
  s.events_out = counters_.events_out.load();
  s.bytes_in = counters_.bytes_in.load();
  s.bytes_out = counters_.bytes_out.load();
  s.admin_requests = counters_.admin_requests.load();
  s.admin_shed = counters_.admin_shed.load();
  s.sessions_active = counters_.active.load(std::memory_order_relaxed);
  s.memory_charged_bytes =
      counters_.memory_charged.load(std::memory_order_relaxed);
  return s;
}

void Server::publish_gauges() {
  counters_.active.store(conns_.size(), std::memory_order_relaxed);
  counters_.memory_charged.store(memory_charged_,
                                 std::memory_order_relaxed);
  if (obs::enabled()) {
    static obs::Gauge& g = obs::Registry::instance().gauge(
        "ptrack.net.sessions.active");
    g.set(static_cast<double>(conns_.size()));
  }
}

void Server::drain_wakeup_fd(int fd) {
  std::array<std::uint8_t, 64> sink{};
  while (::read(fd, sink.data(), sink.size()) > 0) {
  }
}

void Server::service_shutdown_fd() {
  // The self-pipe carries a one-byte command per signal: byte 2 = dump
  // (SIGUSR1), anything else = drain (SIGTERM/SIGINT). Both may arrive in
  // one burst; dump first so a drain request cannot outrun the snapshot.
  std::array<std::uint8_t, 64> buf{};
  bool drain_requested = false;
  bool dump_requested = false;
  ssize_t n = 0;
  while ((n = ::read(cfg_.shutdown_fd, buf.data(), buf.size())) > 0) {
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[static_cast<std::size_t>(i)] == 2) {
        dump_requested = true;
      } else {
        drain_requested = true;
      }
    }
  }
  if (dump_requested && cfg_.dump_hook) {
    PTRACK_LOG_INFO("net", "dump_requested");
    try {
      cfg_.dump_hook();
    } catch (const std::exception&) {
      PTRACK_LOG_ERROR("net", "dump_hook_failed");
    }
  }
  if (drain_requested) {
    drain_flag_.store(true, std::memory_order_release);
  }
}

void Server::run() {
  const auto admin_listeners = static_cast<std::size_t>(
      std::count_if(listeners_.begin(), listeners_.end(),
                    [](const Listener& l) { return l.admin; }));
  expects(listeners_.size() > admin_listeners,
          "Server::run: call listen() first");
  start_time_ = Clock::now();
  running_.store(true, std::memory_order_release);
  PTRACK_LOG_INFO("net", "server_started",
                  kv("listeners", listeners_.size() - admin_listeners),
                  kv("admin_listeners", admin_listeners),
                  kv("max_sessions", cfg_.max_sessions));
  std::vector<pollfd> pfds;
  // Reactor-setup reservation; the per-iteration rebuilds below stay
  // within it (sessions and admin connections are capped by their
  // admission budgets).
  // ptrack-lint: allow(alloc) one-time reactor-setup reservation
  pfds.reserve(cfg_.max_sessions + cfg_.admin_max_sessions +
               listeners_.size() + 2);

  while (true) {
    if (stop_flag_.load(std::memory_order_acquire)) break;
    const Clock::time_point now = Clock::now();
    if (drain_flag_.exchange(false, std::memory_order_acq_rel) &&
        !draining_) {
      enter_drain(now);
    }
    if (draining_ &&
        (conns_.empty() || now >= drain_deadline_)) {
      break;
    }

    pfds.clear();
    // ptrack-lint: allow(alloc) within the run()-entry reservation
    pfds.push_back({wake_rd_, POLLIN, 0});
    if (cfg_.shutdown_fd >= 0) {
      // ptrack-lint: allow(alloc) within the run()-entry reservation
      pfds.push_back({cfg_.shutdown_fd, POLLIN, 0});
    }
    // Drain has closed the ingest listeners; the admin plane's stay up so
    // operators can watch it finish.
    for (const Listener& l : listeners_) {
      if (!l.sock.valid()) continue;
      // ptrack-lint: allow(alloc) within the run()-entry reservation
      pfds.push_back({l.sock.fd(), POLLIN, 0});
    }
    for (const auto& [fd, ac] : admin_conns_) {
      int events = 0;
      if (!ac.responded) events |= POLLIN;
      if (ac.out_pos < ac.out.size()) events |= POLLOUT;
      // ptrack-lint: allow(alloc) within the run()-entry reservation
      pfds.push_back({fd, static_cast<short>(events), 0});
    }
    for (const auto& [fd, conn] : conns_) {
      int events = 0;
      // Backpressure: stop reading once the output backlog crosses half
      // the slow-consumer limit; the kernel buffer then pushes back.
      if (!conn.closing &&
          conn.session.out_pending() < cfg_.session.out_buf_limit / 2) {
        events |= POLLIN;
      }
      if (conn.session.out_pending() > 0) events |= POLLOUT;
      // ptrack-lint: allow(alloc) within the run()-entry reservation
      pfds.push_back({fd, static_cast<short>(events), 0});
    }

    const int rc = ::poll(pfds.data(),
                          static_cast<nfds_t>(pfds.size()),
                          kPollTimeoutMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("Server: poll: ") + std::strerror(errno));
    }

    for (const pollfd& p : pfds) {
      if (p.revents == 0) continue;
      if (p.fd == wake_rd_) {
        drain_wakeup_fd(wake_rd_);
        continue;
      }
      if (cfg_.shutdown_fd >= 0 && p.fd == cfg_.shutdown_fd) {
        service_shutdown_fd();
        continue;
      }
      const auto lit = std::find_if(
          listeners_.begin(), listeners_.end(),
          [&](const Listener& l) { return l.sock.fd() == p.fd; });
      if (lit != listeners_.end()) {
        if (lit->admin) {
          accept_admin_pending(lit->sock);
        } else {
          accept_pending(lit->sock);
        }
        continue;
      }
      if ((p.revents & (POLLERR | POLLNVAL)) != 0) {
        // ptrack-lint: allow(alloc) reused close list, bounded by live fds
        to_close_.push_back(p.fd);
        continue;
      }
      const bool readable = (p.revents & POLLIN) != 0;
      const bool writable = (p.revents & POLLOUT) != 0;
      if (const auto it = conns_.find(p.fd); it != conns_.end()) {
        if (readable) handle_readable(it->second);
        if (writable) handle_writable(it->second);
      } else if (const auto ait = admin_conns_.find(p.fd);
                 ait != admin_conns_.end()) {
        if (readable) handle_admin_readable(ait->second);
        if (writable) handle_admin_writable(ait->second);
      }
      // POLLHUP with unread data still delivers POLLIN first; a bare HUP
      // means the peer is gone for good.
      if ((p.revents & POLLHUP) != 0 && (p.revents & POLLIN) == 0) {
        // ptrack-lint: allow(alloc) reused close list, bounded by live fds
        to_close_.push_back(p.fd);
      }
    }

    const Clock::time_point tick_end = Clock::now();
    enforce_deadlines(tick_end);
    enforce_admin_deadlines(tick_end);
    close_marked();
    // The reactor is the log drainer: every ring flushes to the sink at
    // tick cadence, so records are at most one poll interval stale.
    obs::log::drain();
  }

  // Teardown: whatever is still open gets closed; drain already flushed
  // what the deadline allowed.
  counters_.closed.add(conns_.size());
  conns_.clear();
  admin_conns_.clear();
  memory_charged_ = 0;
  close_listeners(true);
  listeners_.clear();
  publish_gauges();
  PTRACK_LOG_INFO("net", "server_stopped",
                  kv("accepted", counters_.accepted.load()),
                  kv("closed", counters_.closed.load()));
  obs::log::drain();
  running_.store(false, std::memory_order_release);
}

void Server::accept_pending(const Socket& listener) {
  while (true) {
    Socket sock = accept_on(listener);
    if (!sock.valid()) return;
    const Clock::time_point now = Clock::now();
    const std::size_t pre_charge =
        session_memory_estimate(cfg_.session, 0.0);
    const bool table_full = conns_.size() >= cfg_.max_sessions;
    const bool over_budget =
        memory_charged_ + pre_charge > cfg_.memory_budget_bytes;
    if (table_full || over_budget) {
      shed_connection(std::move(sock));
      continue;
    }
    if (cfg_.sndbuf_bytes > 0) sock.set_send_buffer(cfg_.sndbuf_bytes);
    const int fd = sock.fd();
    auto [it, inserted] = conns_.try_emplace(
        fd, std::move(sock), cfg_.session, now);
    PTRACK_CHECK_MSG(inserted, "Server::accept_pending: fresh fd key");
    it->second.charged = pre_charge;
    it->second.stalled = true;  // pre-HELLO counts against the stall clock
    it->second.stall_since = now;
    memory_charged_ += pre_charge;
    counters_.accepted.add(1);
    publish_gauges();
  }
}

void Server::shed_connection(Socket sock) {
  // Best-effort RETRY-AFTER hint; if the socket buffer cannot even take
  // one small frame the client learns from the close instead.
  std::vector<std::uint8_t> frame;
  append_error(frame, ErrorCode::kOverloaded, cfg_.retry_after_s,
               "session budget exhausted; retry later");
  try {
    static_cast<void>(sock.write_some(frame));
  } catch (const Error&) {
    // peer already gone: nothing to hint at
  }
  counters_.shed.add(1);
  PTRACK_LOG_WARN("net", "session_shed",
                  kv("sessions_active", conns_.size()),
                  kv("memory_charged_bytes", memory_charged_));
}

void Server::handle_readable(Conn& conn) {
  if (conn.closing) return;
  std::ptrdiff_t n = 0;
  try {
    n = conn.sock.read_some(read_buf_);
  } catch (const Error&) {
    // ptrack-lint: allow(alloc) reused close list, bounded by live fds
    to_close_.push_back(conn.sock.fd());
    return;
  }
  if (n < 0) return;  // spurious wakeup
  if (n == 0) {
    // Orderly or abrupt peer departure; mid-stream disconnects land here.
    // ptrack-lint: allow(alloc) reused close list, bounded by live fds
    to_close_.push_back(conn.sock.fd());
    return;
  }

  const SessionCounters before = conn.session.counters();
  Session::IoResult result = Session::IoResult::kClose;
  bool failed = false;
  try {
    result = conn.session.on_bytes(
        std::span<const std::uint8_t>(read_buf_.data(),
                                      static_cast<std::size_t>(n)));
  } catch (const std::exception&) {
    failed = true;
  }
  const SessionCounters& after = conn.session.counters();
  count_session(before, after);
  if (failed) {
    // Pipeline contract violation inside this session: contain it. The
    // neighbor sessions keep streaming; this one is torn down.
    counters_.session_errors.add(1);
    PTRACK_LOG_ERROR("net", "session_error",
                     kv("session_id", conn.session.id()),
                     kv("fd", conn.sock.fd()));
    // ptrack-lint: allow(alloc) reused close list, bounded by live fds
    to_close_.push_back(conn.sock.fd());
    return;
  }
  observe_queue_depth(conn.session.queue_depth());

  const Clock::time_point now = Clock::now();
  const bool frame_progress =
      after.frames_ok != before.frames_ok ||
      after.frames_rejected != before.frames_rejected;
  if (frame_progress) conn.last_frame_activity = now;

  // Stall clock: armed while a partial frame pends or HELLO is missing.
  const bool stalled_now =
      conn.session.mid_frame() ||
      (!conn.session.hello_done() &&
       conn.session.state() == Session::State::kAwaitHello);
  if (stalled_now && !conn.stalled) {
    conn.stalled = true;
    conn.stall_since = now;
  } else if (!stalled_now) {
    conn.stalled = false;
  }

  // HELLO upgrades the admission charge to the session's true footprint;
  // if that upgrade blows the budget the session is shed late (better
  // than letting one 1 kHz device starve a hundred 100 Hz ones).
  if (conn.session.hello_done() && !conn.hello_charged) {
    conn.hello_charged = true;
    charge(conn);
    if (memory_charged_ > cfg_.memory_budget_bytes) {
      conn.session.reject(ErrorCode::kOverloaded, cfg_.retry_after_s,
                          "memory budget exhausted; retry later");
      counters_.shed.add(1);
      begin_close(conn);
      return;
    }
  }

  if (result == Session::IoResult::kClose) {
    begin_close(conn);
    return;
  }
  if (conn.session.out_pending() > 0) handle_writable(conn);
}

void Server::handle_writable(Conn& conn) {
  while (conn.session.out_pending() > 0) {
    std::size_t written = 0;
    try {
      written = conn.sock.write_some(conn.session.out());
    } catch (const Error&) {
      // ptrack-lint: allow(alloc) reused close list, bounded by live fds
      to_close_.push_back(conn.sock.fd());
      return;
    }
    if (written == 0) break;  // socket buffer full; POLLOUT will resume
    conn.session.consume_out(written);
    counters_.bytes_out.add(written);
  }
  if (conn.closing && conn.session.out_pending() == 0) {
    // ptrack-lint: allow(alloc) reused close list, bounded by live fds
    to_close_.push_back(conn.sock.fd());
  }
}

void Server::count_session(const SessionCounters& before,
                           const SessionCounters& after) {
  counters_.frames_ok.add(after.frames_ok - before.frames_ok);
  counters_.frames_rejected.add(after.frames_rejected -
                                before.frames_rejected);
  counters_.samples_in.add(after.samples - before.samples);
  counters_.events_out.add(after.events - before.events);
  counters_.bytes_in.add(after.bytes_in - before.bytes_in);
}

void Server::begin_close(Conn& conn) {
  if (conn.closing) return;
  conn.closing = true;
  conn.linger_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kLingerS));
  handle_writable(conn);
}

void Server::enforce_deadlines(Clock::time_point now) {
  for (auto& [fd, conn] : conns_) {
    if (conn.closing) {
      // ptrack-lint: allow(alloc) reused close list, bounded by live fds
      if (now >= conn.linger_deadline) to_close_.push_back(fd);
      continue;
    }
    if (conn.stalled &&
        seconds_between(conn.stall_since, now) > cfg_.stall_timeout_s) {
      conn.session.reject(ErrorCode::kIdleTimeout, 0,
                          conn.session.hello_done()
                              ? "frame stalled past the deadline"
                              : "HELLO not completed in time");
      counters_.evicted_stall.add(1);
      PTRACK_LOG_WARN("net", "session_evicted", kv("reason", "stall"),
                      kv("session_id", conn.session.id()));
      begin_close(conn);
      continue;
    }
    // Slow consumer: a client that lets its event backlog sit. Crossing
    // the full limit evicts at once (burst overflow); holding the
    // backpressure watermark past the deadline evicts too (the socket
    // buffer is full and the client has stopped draining it).
    const std::size_t pending = conn.session.out_pending();
    if (pending >= cfg_.session.out_buf_limit / 2) {
      if (!conn.backpressured) {
        conn.backpressured = true;
        conn.backpressure_since = now;
      }
      if (pending > cfg_.session.out_buf_limit ||
          seconds_between(conn.backpressure_since, now) >
              cfg_.slow_consumer_timeout_s) {
        conn.session.reject(ErrorCode::kSlowConsumer, 0,
                            "event backlog not being read");
        counters_.evicted_slow.add(1);
        PTRACK_LOG_WARN("net", "session_evicted",
                        kv("reason", "slow_consumer"),
                        kv("session_id", conn.session.id()),
                        kv("out_pending_bytes", pending));
        begin_close(conn);
        continue;
      }
    } else {
      conn.backpressured = false;
    }
    if (seconds_between(conn.last_frame_activity, now) >
        cfg_.idle_timeout_s) {
      conn.session.reject(ErrorCode::kIdleTimeout, 0,
                          "no complete frame within the idle timeout");
      counters_.evicted_idle.add(1);
      PTRACK_LOG_WARN("net", "session_evicted", kv("reason", "idle"),
                      kv("session_id", conn.session.id()));
      begin_close(conn);
    }
  }
}

void Server::enter_drain(Clock::time_point now) {
  draining_ = true;
  PTRACK_LOG_INFO("net", "drain_started", kv("sessions", conns_.size()),
                  kv("deadline_s", cfg_.drain_deadline_s));
  drain_deadline_ =
      now + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(cfg_.drain_deadline_s));
  close_listeners(false);
  for (auto& [fd, conn] : conns_) {
    static_cast<void>(fd);
    if (conn.closing) continue;
    if (conn.session.state() == Session::State::kStreaming) {
      const SessionCounters before = conn.session.counters();
      try {
        conn.session.drain();
      } catch (const std::exception&) {
        counters_.session_errors.add(1);
      }
      count_session(before, conn.session.counters());
    } else {
      conn.session.reject(ErrorCode::kShuttingDown, cfg_.retry_after_s,
                          "draining; reconnect later");
    }
    conn.closing = true;
    conn.linger_deadline = drain_deadline_;
    handle_writable(conn);
  }
}

void Server::close_marked() {
  if (to_close_.empty()) return;
  std::sort(to_close_.begin(), to_close_.end());
  to_close_.erase(std::unique(to_close_.begin(), to_close_.end()),
                  to_close_.end());
  for (const int fd : to_close_) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) {
      admin_conns_.erase(fd);  // an fd is in at most one of the two maps
      continue;
    }
    memory_charged_ -= std::min(memory_charged_, it->second.charged);
    conns_.erase(it);
    counters_.closed.add(1);
  }
  to_close_.clear();
  publish_gauges();
}

void Server::charge(Conn& conn) {
  const std::size_t est = conn.session.memory_estimate();
  memory_charged_ -= std::min(memory_charged_, conn.charged);
  conn.charged = est;
  memory_charged_ += est;
  publish_gauges();
}

}  // namespace ptrack::net
