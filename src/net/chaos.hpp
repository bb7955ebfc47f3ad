// Test and fault-injection clients for ptrack_serve.
//
// Two kinds of peers live here:
//   * run_healthy_client — a well-behaved device: HELLO, stream SAMPLES
//     frames while draining EVENT frames, BYE, collect the final flush and
//     the DRAINED summary. The caller compares its events bit-for-bit
//     against a local StreamingTracker fed the same samples (the soak
//     suite's oracle).
//   * ChaosClient (run_chaos_client) — a deliberately faulty device. Each
//     ChaosMode scripts one failure family from the issue's threat model:
//     truncated / corrupt / oversized frames, slowloris byte-dripping,
//     mid-stream disconnects, protocol-order violations (re-HELLO,
//     SAMPLES-before-HELLO) and connection storms. A chaos run succeeds
//     when the *server* stays correct: it answers with the right ERROR
//     code or closes the connection; it must never hang or crash.
//
// Everything here is client-side test support: blocking sockets, wall-clock
// sleeps and per-call allocations are fine (this file is deliberately not a
// hot-path TU for ptrack_lint's allocation rule).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "imu/sample.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace ptrack::net {

/// Outcome of one healthy-client run.
struct ClientResult {
  /// Full protocol completed: HELLO acked, every frame accepted, DRAINED
  /// received after BYE.
  bool ok = false;
  /// What failed, when !ok (for test diagnostics).
  std::string detail;
  /// Every event the server emitted, in order (compare with the oracle).
  std::vector<core::StepEvent> events;
  /// The server's end-of-session summary.
  Drained drained{};
  /// Set when the server answered with an ERROR frame.
  ErrorCode error = ErrorCode::kNone;
};

struct ClientConfig {
  std::uint64_t session_id = 1;
  double fs = 100.0;
  std::size_t samples_per_frame = 256;
  /// false: skip the BYE and wait for a *server-initiated* drain instead
  /// (the SIGTERM-path test: the server must flush and send DRAINED).
  bool send_bye = true;
  /// Hard wall-clock bound on the whole run (handshake, streaming, drain).
  double timeout_s = 30.0;
};

/// Streams `samples` to the server at `ep` and collects everything it says.
/// Never throws on server misbehavior (reports through ClientResult);
/// throws ptrack::Error only when the transport itself fails to connect.
[[nodiscard]] ClientResult run_healthy_client(
    const Endpoint& ep, const ClientConfig& cfg,
    std::span<const imu::Sample> samples);

/// One failure family per mode (see file comment).
enum class ChaosMode : std::uint8_t {
  kTruncatedFrame,       ///< header promises bytes that never arrive, EOF
  kCorruptMagic,         ///< garbage where the magic belongs
  kCorruptPayload,       ///< valid SAMPLES header, short/garbled payload
  kOversizedFrame,       ///< header with payload_len past the bound
  kBadVersion,           ///< unknown protocol version
  kSlowloris,            ///< drip a frame one byte at a time
  kMidStreamDisconnect,  ///< valid HELLO + some SAMPLES, then abrupt close
  kReHello,              ///< second HELLO with a different fs mid-session
  kSamplesBeforeHello,   ///< protocol-order violation
  kConnectionStorm,      ///< rapid connect/forget cycles, no traffic
};

struct ChaosConfig {
  ChaosMode mode = ChaosMode::kTruncatedFrame;
  std::uint64_t session_id = 0xC4A05;
  double fs = 100.0;
  /// kSlowloris: how long to keep dripping before giving up on the server
  /// evicting us (the server's stall timeout should be below this).
  double slowloris_duration_s = 5.0;
  double slowloris_byte_interval_s = 0.05;
  /// kMidStreamDisconnect: samples streamed before vanishing.
  std::size_t samples_before_disconnect = 400;
  /// kConnectionStorm: connect/close cycles.
  std::size_t storm_connections = 32;
  /// Wall-clock bound on reading the server's reaction.
  double response_timeout_s = 10.0;
};

/// Outcome of one chaos run, judged from the client's side.
struct ChaosResult {
  /// The server reacted correctly for the mode: an ERROR frame and/or an
  /// orderly close within the timeout — never a hang.
  bool server_contained = false;
  /// ERROR code received, if any.
  ErrorCode error = ErrorCode::kNone;
  std::string detail;
};

/// Runs one scripted fault against the server at `ep`.
[[nodiscard]] ChaosResult run_chaos_client(const Endpoint& ep,
                                           const ChaosConfig& cfg);

[[nodiscard]] const char* to_string(ChaosMode mode);

}  // namespace ptrack::net
