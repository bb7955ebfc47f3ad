#include "net/session.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace ptrack::net {

namespace {

/// Events per EVENT frame: bounded well below the payload limit so one
/// flush can never produce an oversized frame.
constexpr std::size_t kEventsPerFrame = 512;
static_assert(4 + kEventsPerFrame * kEventWireBytes <= kMaxPayloadBytes);

/// Retention horizon of the incremental pipeline (projection context +
/// axis history + finalization margins), used for admission accounting —
/// deliberately rounded up: shedding slightly early beats paging.
constexpr double kTrackerRetentionS = 40.0;
/// Ring bytes per retained sample: 3 accel channels of f64 and a flag byte
/// (25 bytes) plus quality bookkeeping, rounded well up. The figure was
/// sized when the ring also kept the gyro channels; the headroom is kept
/// so admission stays conservative.
constexpr std::size_t kBytesPerRetainedSample = 80;

}  // namespace

std::size_t session_memory_estimate(const SessionConfig& cfg, double fs) {
  const double rate = std::max(1.0, fs);
  const auto ring_bytes = static_cast<std::size_t>(
      rate * kTrackerRetentionS * static_cast<double>(
                                      kBytesPerRetainedSample));
  const std::size_t decoder_bytes =
      kHeaderBytes + kMaxPayloadBytes + kReadChunkBytes;
  return decoder_bytes + cfg.out_buf_limit + ring_bytes;
}

Session::Session(const SessionConfig& cfg)
    : cfg_(cfg),
      decoder_(kMaxPayloadBytes, kReadChunkBytes),
      // Pre-HELLO estimate (no tracker yet): what admission charges until
      // the HELLO announces the real sample rate.
      mem_estimate_(session_memory_estimate(cfg, 0.0) -
                    static_cast<std::size_t>(
                        kTrackerRetentionS *
                        static_cast<double>(kBytesPerRetainedSample))) {
  // Connection-setup reservations: steady-state appends stay within them.
  out_.reserve(cfg.out_buf_limit / 4);
  events_.reserve(kEventsPerFrame);
}

Session::IoResult Session::on_bytes(std::span<const std::uint8_t> bytes) {
  if (state_ == State::kClosing) return IoResult::kClose;
  counters_.bytes_in += bytes.size();
  decoder_.feed(bytes);
  Frame frame;
  while (true) {
    switch (decoder_.next(frame)) {
      case DecodeStatus::kNeedMore:
        return IoResult::kOk;
      case DecodeStatus::kError:
        ++counters_.frames_rejected;
        PTRACK_COUNT("ptrack.net.frames.rejected");
        return protocol_error(decoder_.error(), decoder_.error_detail());
      case DecodeStatus::kFrame: {
        const IoResult r = dispatch(frame);
        if (r == IoResult::kClose) return r;
        break;
      }
    }
  }
}

Session::IoResult Session::dispatch(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      return on_hello(frame);
    case FrameType::kSamples:
      return on_samples(frame);
    case FrameType::kBye:
      ++counters_.frames_ok;
      PTRACK_COUNT("ptrack.net.frames.ok");
      drain();
      return IoResult::kClose;
    case FrameType::kHelloAck:
    case FrameType::kEvent:
    case FrameType::kError:
    case FrameType::kDrained:
      ++counters_.frames_rejected;
      PTRACK_COUNT("ptrack.net.frames.rejected");
      return protocol_error(ErrorCode::kProtocol,
                            "server-to-client frame type from a client");
  }
  return protocol_error(ErrorCode::kMalformedFrame, "unreachable");
}

Session::IoResult Session::on_hello(const Frame& frame) {
  Hello hello;
  if (!parse_hello(frame.payload, hello)) {
    ++counters_.frames_rejected;
    PTRACK_COUNT("ptrack.net.frames.rejected");
    return protocol_error(ErrorCode::kMalformedFrame, "bad HELLO payload");
  }
  if (state_ != State::kAwaitHello) {
    // Re-HELLO (including the fs-mismatch re-negotiation attempt the chaos
    // suite sends): one stream is one session; reconnect to renegotiate.
    ++counters_.frames_rejected;
    PTRACK_COUNT("ptrack.net.frames.rejected");
    return protocol_error(ErrorCode::kProtocol, "HELLO on an open session");
  }
  const bool fs_ok = std::isfinite(hello.fs) && hello.fs >= kMinHelloFs &&
                     hello.fs <= kMaxHelloFs;
  // Streams are served in double only; the wire keeps the precision byte.
  if (!fs_ok || hello.precision != 0) {
    ++counters_.frames_rejected;
    PTRACK_COUNT("ptrack.net.frames.rejected");
    return protocol_error(ErrorCode::kBadHello,
                          fs_ok ? "unsupported precision"
                                : "sample rate out of range");
  }
  // Connection setup: the tracker and its rings are built once per
  // session, before any steady-state traffic.
  // ptrack-lint: allow(alloc) one-time session setup at HELLO
  tracker_.emplace(hello.fs, cfg_.streaming);
  id_ = hello.session_id;
  fs_ = hello.fs;
  mem_estimate_ = session_memory_estimate(cfg_, fs_);
  state_ = State::kStreaming;
  PTRACK_LOG_DEBUG("net", "session_hello", kv("session_id", id_),
                   kv("fs", fs_));
  ++counters_.frames_ok;
  PTRACK_COUNT("ptrack.net.frames.ok");
  HelloAck ack;
  ack.session_id = hello.session_id;
  ack.max_samples_per_frame =
      static_cast<std::uint32_t>(cfg_.max_samples_per_frame);
  ack.version = kProtocolVersion;
  compact_out();
  append_hello_ack(out_, ack);
  return IoResult::kOk;
}

Session::IoResult Session::on_samples(const Frame& frame) {
  if (state_ != State::kStreaming) {
    ++counters_.frames_rejected;
    PTRACK_COUNT("ptrack.net.frames.rejected");
    return protocol_error(ErrorCode::kProtocol, "SAMPLES before HELLO");
  }
  SampleBlockView block;
  if (!parse_samples(frame.payload, block) ||
      block.count > cfg_.max_samples_per_frame) {
    ++counters_.frames_rejected;
    PTRACK_COUNT("ptrack.net.frames.rejected");
    return protocol_error(ErrorCode::kMalformedFrame,
                          "bad SAMPLES payload");
  }
  PTRACK_CHECK_MSG(tracker_.has_value(),
                   "Session::on_samples: streaming implies a tracker");
  for (std::uint32_t i = 0; i < block.count; ++i) {
    tracker_->push(sample_at(block, i));
  }
  counters_.samples += block.count;
  ++counters_.frames_ok;
  PTRACK_COUNT("ptrack.net.frames.ok");
  PTRACK_COUNT_N("ptrack.net.samples.in", block.count);
  flush_events();
  return IoResult::kOk;
}

void Session::drain() {
  if (state_ == State::kClosing) return;
  if (tracker_.has_value()) {
    events_.clear();
    tracker_->drain_into(events_);
    counters_.events += events_.size();
    PTRACK_COUNT_N("ptrack.net.events.out", events_.size());
    compact_out();
    std::span<const core::StepEvent> rest(events_);
    while (!rest.empty()) {
      const std::size_t n = std::min(rest.size(), kEventsPerFrame);
      append_events(out_, rest.subspan(0, n));
      rest = rest.subspan(n);
    }
    Drained drained;
    drained.events_total = counters_.events;
    drained.samples_total = counters_.samples;
    append_drained(out_, drained);
  }
  state_ = State::kClosing;
}

void Session::reject(ErrorCode code, std::uint16_t retry_after_s,
                     const char* detail) {
  // Append after whatever is queued — a frame may already be half-written
  // to the socket, and truncating the stream mid-frame would desync the
  // client's decoder right when it needs to read the ERROR. The backlog is
  // bounded (the server evicts past out_buf_limit), so appending is too.
  compact_out();
  append_error(out_, code, retry_after_s, detail);
  state_ = State::kClosing;
}

void Session::consume_out(std::size_t n) {
  PTRACK_CHECK_MSG(n <= out_pending(),
                   "Session::consume_out: within the pending region");
  out_pos_ += n;
  if (out_pos_ == out_.size()) {
    out_.clear();
    out_pos_ = 0;
  }
}

Session::IoResult Session::protocol_error(ErrorCode code,
                                          const char* detail) {
  PTRACK_LOG_WARN("net", "session_protocol_error", kv("session_id", id_),
                  kv("code", static_cast<unsigned>(code)),
                  kv("detail", detail));
  compact_out();
  append_error(out_, code, 0, detail);
  state_ = State::kClosing;
  return IoResult::kClose;
}

void Session::flush_events() {
  PTRACK_CHECK_MSG(tracker_.has_value(),
                   "Session::flush_events: tracker present");
  events_.clear();
  tracker_->poll_into(events_);
  if (events_.empty()) return;
  counters_.events += events_.size();
  PTRACK_COUNT_N("ptrack.net.events.out", events_.size());
  compact_out();
  std::span<const core::StepEvent> rest(events_);
  while (!rest.empty()) {
    const std::size_t n = std::min(rest.size(), kEventsPerFrame);
    append_events(out_, rest.subspan(0, n));
    rest = rest.subspan(n);
  }
}

void Session::compact_out() {
  // Drop the consumed prefix before appending, so the buffer level tracks
  // the true backlog (the slow-consumer limit compares against it).
  if (out_pos_ == 0) return;
  out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(
                                              out_pos_));
  out_pos_ = 0;
}

}  // namespace ptrack::net
