// Read-only admin routes served by the Server's HTTP listener: request
// routing (pure, fuzz-friendly) and body rendering for the live telemetry
// surface. The server gathers the per-session rows and status view on its
// reactor thread; rendering here is just formatting.
//
// Endpoint surface (GET-only, one request per connection):
//   /metrics       Prometheus text exposition of the metrics registry
//   /metrics.json  the ptrack.metrics.v1 JSON document (same bytes as
//                  --metrics-out and the SIGUSR1 dump)
//   /healthz       liveness: 200 {"status":"ok"} while the reactor runs
//   /readyz        readiness: 200 until drain starts, then 503
//   /sessions      ptrack.sessions.v1 JSON: server stats + one row per
//                  live session (uptime, counters, lag, quality, state)

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/server.hpp"

namespace ptrack::net {

enum class AdminRoute : std::uint8_t {
  kMetrics,
  kMetricsJson,
  kHealthz,
  kReadyz,
  kSessions,
  kUnknown,
};

/// Maps a request target to a route. The query string (from '?') is
/// ignored; matching is exact otherwise.
[[nodiscard]] AdminRoute admin_route(std::string_view target);

/// One live ingest session as shown by /sessions.
struct AdminSessionRow {
  std::uint64_t id = 0;            ///< HELLO session id (0 pre-HELLO)
  const char* state = "await_hello";
  double fs = 0.0;
  double uptime_s = 0.0;
  std::uint64_t frames_ok = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t samples = 0;
  std::uint64_t events = 0;
  std::uint64_t bytes_in = 0;
  std::size_t out_pending_bytes = 0;  ///< event backlog (lag) toward client
  std::size_t queue_depth_bytes = 0;  ///< ingest bytes awaiting a frame
  bool backpressured = false;
  double degraded_fraction = 0.0;     ///< quality: degraded / emitted events
  double distance_m = 0.0;
  std::size_t windows_processed = 0;
};

/// Server-level status snapshot for /healthz, /readyz and /sessions.
struct AdminStatusView {
  double uptime_s = 0.0;
  bool draining = false;
  ServerStats stats;
};

/// Renders the response body (and content type) for a route. kUnknown
/// renders a 404 body. `status_out` receives the HTTP status code.
[[nodiscard]] std::string render_admin_body(
    AdminRoute route, const AdminStatusView& view,
    const std::vector<AdminSessionRow>& sessions,
    std::string_view* content_type_out, int* status_out);

}  // namespace ptrack::net
