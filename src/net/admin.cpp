#include "net/admin.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace ptrack::net {

AdminRoute admin_route(std::string_view target) {
  const std::size_t q = target.find('?');
  if (q != std::string_view::npos) target = target.substr(0, q);
  if (target == "/metrics") return AdminRoute::kMetrics;
  if (target == "/metrics.json") return AdminRoute::kMetricsJson;
  if (target == "/healthz") return AdminRoute::kHealthz;
  if (target == "/readyz") return AdminRoute::kReadyz;
  if (target == "/sessions") return AdminRoute::kSessions;
  return AdminRoute::kUnknown;
}

namespace {

void write_server_stats(json::Writer& w, const AdminStatusView& view) {
  const ServerStats& s = view.stats;
  w.begin_object();
  w.key("accepted").value(s.accepted);
  w.key("shed").value(s.shed);
  w.key("evicted_idle").value(s.evicted_idle);
  w.key("evicted_stall").value(s.evicted_stall);
  w.key("evicted_slow").value(s.evicted_slow);
  w.key("closed").value(s.closed);
  w.key("session_errors").value(s.session_errors);
  w.key("frames_ok").value(s.frames_ok);
  w.key("frames_rejected").value(s.frames_rejected);
  w.key("samples_in").value(s.samples_in);
  w.key("events_out").value(s.events_out);
  w.key("bytes_in").value(s.bytes_in);
  w.key("bytes_out").value(s.bytes_out);
  w.key("sessions_active").value(s.sessions_active);
  w.key("memory_charged_bytes").value(s.memory_charged_bytes);
  w.key("admin_requests").value(s.admin_requests);
  w.key("admin_shed").value(s.admin_shed);
  w.end_object();
}

std::string render_sessions(const AdminStatusView& view,
                            const std::vector<AdminSessionRow>& sessions) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.key("schema").value("ptrack.sessions.v1");
  w.key("uptime_s").value(view.uptime_s);
  w.key("draining").value(view.draining);
  w.key("server");
  write_server_stats(w, view);
  w.key("sessions").begin_array();
  for (const AdminSessionRow& row : sessions) {
    w.begin_object();
    w.key("id").value(row.id);
    w.key("state").value(row.state);
    w.key("fs").value(row.fs);
    w.key("uptime_s").value(row.uptime_s);
    w.key("frames_ok").value(row.frames_ok);
    w.key("frames_rejected").value(row.frames_rejected);
    w.key("samples").value(row.samples);
    w.key("events").value(row.events);
    w.key("bytes_in").value(row.bytes_in);
    w.key("out_pending_bytes").value(row.out_pending_bytes);
    w.key("queue_depth_bytes").value(row.queue_depth_bytes);
    w.key("backpressured").value(row.backpressured);
    w.key("degraded_fraction").value(row.degraded_fraction);
    w.key("distance_m").value(row.distance_m);
    w.key("windows_processed").value(row.windows_processed);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  return os.str();
}

std::string render_status(const AdminStatusView& view, const char* status) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.key("status").value(status);
  w.key("uptime_s").value(view.uptime_s);
  w.key("sessions_active").value(view.stats.sessions_active);
  w.end_object();
  os << "\n";
  return os.str();
}

}  // namespace

std::string render_admin_body(AdminRoute route, const AdminStatusView& view,
                              const std::vector<AdminSessionRow>& sessions,
                              std::string_view* content_type_out,
                              int* status_out) {
  *status_out = 200;
  *content_type_out = "application/json";
  switch (route) {
    case AdminRoute::kMetrics: {
      std::ostringstream os;
      obs::write_prometheus(os);
      *content_type_out = "text/plain; version=0.0.4; charset=utf-8";
      return os.str();
    }
    case AdminRoute::kMetricsJson: {
      std::ostringstream os;
      obs::write_metrics_document(os);
      return os.str();
    }
    case AdminRoute::kHealthz:
      return render_status(view, "ok");
    case AdminRoute::kReadyz:
      if (view.draining) {
        *status_out = 503;
        return render_status(view, "draining");
      }
      return render_status(view, "ready");
    case AdminRoute::kSessions:
      return render_sessions(view, sessions);
    case AdminRoute::kUnknown:
      break;
  }
  *status_out = 404;
  return "{\"error\":\"unknown route\",\"routes\":[\"/metrics\","
         "\"/metrics.json\",\"/healthz\",\"/readyz\",\"/sessions\"]}\n";
}

// ---------------------------------------------------------------------------
// Server admin-plane handlers. They live here (not server.cpp) because the
// admin plane is control-plane code: it may allocate per request, and the
// allocation lint's hot-path list exempts this TU like net/chaos.cpp.

namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s,
                                       std::size_t from) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()) + from,
          s.size() - from};
}

}  // namespace

void Server::accept_admin_pending(const Socket& listener) {
  while (true) {
    Socket sock = accept_on(listener);
    if (!sock.valid()) return;
    if (admin_conns_.size() >= cfg_.admin_max_sessions) {
      // Immediate 503: an admin client must never queue behind ingest,
      // and a scraper storm must never grow reactor state.
      const std::string resp = http_response(
          503, "application/json",
          "{\"error\":\"admin connection budget exhausted\"}\n");
      try {
        static_cast<void>(sock.write_some(as_bytes(resp, 0)));
      } catch (const Error&) {
        // peer already gone
      }
      counters_.admin_shed.add(1);
      PTRACK_LOG_WARN("net", "admin_shed",
                      kv("budget", cfg_.admin_max_sessions));
      continue;
    }
    const int fd = sock.fd();
    admin_conns_.try_emplace(fd, std::move(sock), Clock::now());
    PTRACK_COUNT("ptrack.net.admin.accepted");
  }
}

void Server::handle_admin_readable(AdminConn& conn) {
  if (conn.responded) return;
  std::ptrdiff_t n = 0;
  try {
    n = conn.sock.read_some(read_buf_);
  } catch (const Error&) {
    to_close_.push_back(conn.sock.fd());
    return;
  }
  if (n < 0) return;  // spurious wakeup
  if (n == 0) {
    to_close_.push_back(conn.sock.fd());
    return;
  }
  const HttpParseStatus status = conn.parser.feed(
      std::span<const std::uint8_t>(read_buf_.data(),
                                    static_cast<std::size_t>(n)));
  if (status == HttpParseStatus::kNeedMore) return;
  build_admin_response(conn, status);
  handle_admin_writable(conn);
}

void Server::handle_admin_writable(AdminConn& conn) {
  while (conn.out_pos < conn.out.size()) {
    std::size_t written = 0;
    try {
      written = conn.sock.write_some(as_bytes(conn.out, conn.out_pos));
    } catch (const Error&) {
      to_close_.push_back(conn.sock.fd());
      return;
    }
    if (written == 0) return;  // socket buffer full; POLLOUT resumes
    conn.out_pos += written;
  }
  if (conn.responded) to_close_.push_back(conn.sock.fd());
}

void Server::build_admin_response(AdminConn& conn,
                                  HttpParseStatus status) {
  int code = 200;
  std::string_view content_type = "application/json";
  std::string body;
  std::string_view target;
  if (status == HttpParseStatus::kError) {
    code = 400;
    body = std::string("{\"error\":\"") + conn.parser.error() + "\"}\n";
  } else if (conn.parser.request().method != "GET") {
    code = 405;
    body = "{\"error\":\"admin plane is read-only (GET)\"}\n";
  } else {
    target = conn.parser.request().target;
    const AdminRoute route = admin_route(target);
    const Clock::time_point now = Clock::now();
    AdminStatusView view;
    view.uptime_s = seconds_between(start_time_, now);
    view.draining = draining_;
    view.stats = stats();
    std::vector<AdminSessionRow> rows;
    if (route == AdminRoute::kSessions) {
      rows.reserve(conns_.size());
      for (const auto& [fd, c] : conns_) {
        static_cast<void>(fd);
        AdminSessionRow row;
        row.id = c.session.id();
        switch (c.session.state()) {
          case Session::State::kAwaitHello: row.state = "await_hello"; break;
          case Session::State::kStreaming: row.state = "streaming"; break;
          case Session::State::kClosing: row.state = "closing"; break;
        }
        row.fs = c.session.fs();
        row.uptime_s = seconds_between(c.established, now);
        const SessionCounters& sc = c.session.counters();
        row.frames_ok = sc.frames_ok;
        row.frames_rejected = sc.frames_rejected;
        row.samples = sc.samples;
        row.events = sc.events;
        row.bytes_in = sc.bytes_in;
        row.out_pending_bytes = c.session.out_pending();
        row.queue_depth_bytes = c.session.queue_depth();
        row.backpressured = c.backpressured;
        const core::StreamingStats st = c.session.streaming_stats();
        row.degraded_fraction = st.degraded_fraction();
        row.distance_m = st.distance_m;
        row.windows_processed = st.windows_processed;
        rows.push_back(row);
      }
    }
    body = render_admin_body(route, view, rows, &content_type, &code);
  }
  conn.out = http_response(code, content_type, body);
  conn.out_pos = 0;
  conn.responded = true;
  counters_.admin_requests.add(1);
  PTRACK_LOG_DEBUG("net", "admin_request", kv("target", target),
                   kv("status", code));
}

void Server::enforce_admin_deadlines(Clock::time_point now) {
  for (const auto& [fd, conn] : admin_conns_) {
    if (seconds_between(conn.since, now) > kAdminTimeoutS) {
      to_close_.push_back(fd);
    }
  }
}

}  // namespace ptrack::net
