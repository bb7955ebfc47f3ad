// One ingest session: the protocol state machine between a device
// connection and a core::StreamingTracker.
//
// Lifecycle:  kAwaitHello --HELLO--> kStreaming --BYE/drain--> kClosing
// Any protocol violation (SAMPLES before HELLO, re-HELLO, malformed or
// oversized frame, unknown type) moves the session to kClosing with an
// ERROR frame queued — the fault is contained here; neighbor sessions
// never observe it.
//
// Robustness contract:
//   * All parsing is bounded (FrameDecoder + strict payload parsers); a
//     session's ingest queue is the decoder buffer, reserved once at
//     connection setup and never grown past its bound.
//   * Output is a bounded byte queue. The *server* enforces the
//     slow-consumer limit and backpressure (it stops reading a connection
//     whose output backlog is high, letting the kernel socket buffer and
//     TCP flow control push back on the device).
//   * The session never throws on malformed *input*; exceptions can only
//     come from pipeline contract violations, which the server catches and
//     converts into a session close (fault isolation, matching the batch
//     runner's per-trace Expected capture).
//   * The session counts into its SessionCounters only; it touches no
//     registry metric. The server turns counter deltas into ServerStats
//     and the ptrack.net.* counters.
//
// Sample time base: the wire carries no timestamps; the tracker assigns
// t = index/fs exactly as it does for every other ingest path, so a healthy
// client's event stream is bit-identical to a local StreamingTracker fed
// the same samples (the soak suite's oracle).

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/streaming.hpp"
#include "net/wire.hpp"

namespace ptrack::net {

/// HELLO sample-rate plausibility window (Hz); rates outside it get
/// ERROR kBadHello "sample rate out of range".
inline constexpr double kMinHelloFs = 1.0;
inline constexpr double kMaxHelloFs = 1024.0;

/// Largest single read the server issues on an ingest connection; sizes
/// each session's decoder reservation.
inline constexpr std::size_t kReadChunkBytes = 16 * 1024;

/// Per-session policy knobs (shared by every session of a server).
struct SessionConfig {
  /// Streaming pipeline configuration of every session.
  core::StreamingConfig streaming{};
  std::size_t max_samples_per_frame = kMaxSamplesPerFrame;
  /// Queued output bytes beyond which the server declares the client a
  /// slow consumer and disconnects it.
  std::size_t out_buf_limit = 256 * 1024;
};

/// Monotone per-session counters: the DRAINED totals and /sessions rows
/// read them, and the server aggregates their deltas into ptrack.net.*.
struct SessionCounters {
  std::uint64_t frames_ok = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t samples = 0;
  std::uint64_t events = 0;
  std::uint64_t bytes_in = 0;
};

/// Estimated steady-state memory footprint of one session at sample rate
/// `fs` (decoder + output reservations + tracker ring retention) — the
/// unit of the server's global memory budget. fs = 0 gives the pre-HELLO
/// charge, with no tracker bytes.
[[nodiscard]] std::size_t session_memory_estimate(const SessionConfig& cfg,
                                                  double fs);

class Session {
 public:
  enum class State : std::uint8_t { kAwaitHello, kStreaming, kClosing };
  /// What the server must do after an ingest call.
  enum class IoResult : std::uint8_t {
    kOk,     ///< keep the connection open
    kClose,  ///< flush out() (best effort), then close
  };

  explicit Session(const SessionConfig& cfg);

  /// Feeds raw connection bytes through the decoder and dispatches every
  /// complete frame. Never throws on malformed input (see file comment).
  [[nodiscard]] IoResult on_bytes(std::span<const std::uint8_t> bytes);

  /// Graceful finalization: flushes the tracker's margins, queues the
  /// final EVENT/DRAINED frames and moves to kClosing. Used for BYE and
  /// for the server's drain-on-SIGTERM path. Safe in any state.
  void drain();

  /// Queues a final ERROR frame after any pending output and moves to
  /// kClosing (admission shed, idle/stall eviction, slow consumer,
  /// shutdown refusals). The ERROR is appended, not substituted: a partial
  /// frame may already be on the wire, and the stream must stay decodable
  /// up to and including the ERROR.
  void reject(ErrorCode code, std::uint16_t retry_after_s,
              const char* detail);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] bool hello_done() const { return tracker_.has_value(); }
  [[nodiscard]] double fs() const { return fs_; }
  [[nodiscard]] const SessionCounters& counters() const { return counters_; }
  /// Pipeline statistics for the admin plane's /sessions quality columns
  /// (all-zero before HELLO builds the tracker).
  [[nodiscard]] core::StreamingStats streaming_stats() const {
    return tracker_.has_value() ? tracker_->stats() : core::StreamingStats{};
  }

  /// Queued output bytes; the server writes from the front.
  [[nodiscard]] std::span<const std::uint8_t> out() const {
    return {out_.data() + out_pos_, out_.size() - out_pos_};
  }
  void consume_out(std::size_t n);
  [[nodiscard]] std::size_t out_pending() const {
    return out_.size() - out_pos_;
  }

  /// Ingest-queue depth (bytes buffered awaiting a complete frame).
  [[nodiscard]] std::size_t queue_depth() const {
    return decoder_.buffered();
  }
  /// True while a partially received frame is pending (stall detection).
  [[nodiscard]] bool mid_frame() const { return decoder_.mid_frame(); }

  [[nodiscard]] std::size_t memory_estimate() const { return mem_estimate_; }

 private:
  [[nodiscard]] IoResult dispatch(const Frame& frame);
  [[nodiscard]] IoResult on_hello(const Frame& frame);
  [[nodiscard]] IoResult on_samples(const Frame& frame);
  [[nodiscard]] IoResult protocol_error(ErrorCode code, const char* detail);
  /// Appends tracker events queued since the last call as EVENT frames.
  void flush_events();
  void compact_out();

  SessionConfig cfg_;
  FrameDecoder decoder_;
  State state_ = State::kAwaitHello;
  std::uint64_t id_ = 0;
  double fs_ = 0.0;
  std::optional<core::StreamingTracker> tracker_;
  std::vector<std::uint8_t> out_;
  std::size_t out_pos_ = 0;  ///< consumed prefix inside out_
  std::vector<core::StepEvent> events_;  ///< poll scratch, reused
  SessionCounters counters_;
  std::size_t mem_estimate_;
};

}  // namespace ptrack::net
