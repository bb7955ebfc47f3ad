#include "net/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/error.hpp"

namespace ptrack::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

void push_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
}

/// Hand-crafts a frame header; the knob every header-level chaos mode
/// turns. Defaults describe a valid empty SAMPLES frame.
struct RawHeader {
  std::uint32_t magic = kMagic;
  std::uint8_t version = kProtocolVersion;
  std::uint8_t type = static_cast<std::uint8_t>(FrameType::kSamples);
  std::uint16_t flags = 0;
  std::uint32_t payload_len = 0;
};

void push_header(std::vector<std::uint8_t>& out, const RawHeader& h) {
  push_u32(out, h.magic);
  out.push_back(h.version);
  out.push_back(h.type);
  out.push_back(static_cast<std::uint8_t>(h.flags & 0xFF));
  out.push_back(static_cast<std::uint8_t>((h.flags >> 8) & 0xFF));
  push_u32(out, h.payload_len);
}

/// Deterministic walking-ish accelerometer trace (the chaos clients only
/// need plausible bytes, not plausible gait).
imu::Sample synthetic_sample(std::size_t i) {
  imu::Sample s;
  const double phase = static_cast<double>(i) * 0.11;
  s.accel = {0.3 * std::sin(phase), 0.2 * std::cos(phase * 0.7),
             9.81 + 1.5 * std::sin(phase * 2.0)};
  s.gyro = {0.01 * std::sin(phase), 0.01 * std::cos(phase), 0.0};
  return s;
}

/// Pulls server frames from a nonblocking socket. Accumulates into a
/// decoder; the per-call handlers decide what the caller is waiting for.
class ServerReader {
 public:
  ServerReader() : rx_(4096) {}

  enum class Pump : std::uint8_t { kIdle, kProgress, kClosed, kBroken };

  /// Drains whatever is readable right now. kIdle = nothing to read,
  /// kProgress = bytes and/or frames arrived, kClosed = orderly EOF,
  /// kBroken = transport error or undecodable server stream.
  template <typename OnFrame>
  Pump pump(const Socket& sock, OnFrame&& on_frame) {
    Pump state = Pump::kIdle;
    while (true) {
      std::ptrdiff_t n = 0;
      try {
        n = sock.read_some(rx_);
      } catch (const Error&) {
        return Pump::kBroken;
      }
      if (n < 0) return state;
      if (n == 0) return Pump::kClosed;
      state = Pump::kProgress;
      decoder_.feed({rx_.data(), static_cast<std::size_t>(n)});
      Frame frame;
      while (true) {
        const DecodeStatus st = decoder_.next(frame);
        if (st == DecodeStatus::kNeedMore) break;
        if (st == DecodeStatus::kError) return Pump::kBroken;
        if (!on_frame(frame)) return Pump::kProgress;
      }
    }
  }

 private:
  FrameDecoder decoder_;
  std::vector<std::uint8_t> rx_;
};

/// Writes all of `bytes` to a nonblocking socket, draining server frames
/// between short writes so neither side's buffer can deadlock the pair.
template <typename OnFrame>
bool write_draining(const Socket& sock, std::span<const std::uint8_t> bytes,
                    ServerReader& reader, OnFrame&& on_frame,
                    Clock::time_point deadline, bool* peer_gone) {
  std::span<const std::uint8_t> rest = bytes;
  while (!rest.empty()) {
    if (Clock::now() > deadline) return false;
    std::size_t w = 0;
    try {
      w = sock.write_some(rest);
    } catch (const Error&) {
      if (peer_gone != nullptr) *peer_gone = true;
      return false;
    }
    rest = rest.subspan(w);
    const ServerReader::Pump p = reader.pump(sock, on_frame);
    if (p == ServerReader::Pump::kClosed ||
        p == ServerReader::Pump::kBroken) {
      if (peer_gone != nullptr) *peer_gone = true;
      return rest.empty();
    }
    if (w == 0) sleep_s(0.001);
  }
  return true;
}

/// Shared chaos epilogue: watch the server until it answers with an ERROR
/// frame or closes the connection. Containment means "the server reacted";
/// a silent hang until the timeout is the failure being tested for.
void await_reaction(const Socket& sock, double timeout_s, ChaosResult& out) {
  ServerReader reader;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < timeout_s) {
    bool saw_error = false;
    const ServerReader::Pump p =
        reader.pump(sock, [&](const Frame& frame) {
          if (frame.type == FrameType::kError) {
            WireError err;
            if (parse_error(frame.payload, err)) {
              out.error = err.code;
              out.detail = err.detail;
              saw_error = true;
            }
          }
          return true;  // keep decoding; close still ends the wait
        });
    if (saw_error || p == ServerReader::Pump::kClosed ||
        p == ServerReader::Pump::kBroken) {
      out.server_contained = true;
      return;
    }
    sleep_s(0.002);
  }
  out.detail = "server did not react before the timeout";
}

/// HELLO + HELLO_ACK over a nonblocking socket; several chaos modes need a
/// live session before injecting their fault.
bool chaos_handshake(const Socket& sock, const ChaosConfig& cfg,
                     ChaosResult& out) {
  std::vector<std::uint8_t> tx;
  append_hello(tx, Hello{cfg.session_id, cfg.fs, 0});
  ServerReader reader;
  bool acked = false;
  bool peer_gone = false;
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(cfg.response_timeout_s));
  auto on_frame = [&](const Frame& frame) {
    if (frame.type == FrameType::kHelloAck) acked = true;
    if (frame.type == FrameType::kError) {
      WireError err;
      if (parse_error(frame.payload, err)) {
        out.error = err.code;
        out.detail = err.detail;
      }
    }
    return true;
  };
  if (!write_draining(sock, tx, reader, on_frame, deadline, &peer_gone)) {
    out.detail = "HELLO write failed";
    return false;
  }
  while (!acked && !peer_gone && Clock::now() < deadline) {
    const ServerReader::Pump p = reader.pump(sock, on_frame);
    if (p == ServerReader::Pump::kClosed ||
        p == ServerReader::Pump::kBroken) {
      peer_gone = true;
    }
    if (p == ServerReader::Pump::kIdle) sleep_s(0.001);
  }
  if (!acked) {
    if (out.detail.empty()) out.detail = "no HELLO_ACK";
    // An admission shed (ERROR + close) is still a contained reaction.
    out.server_contained = out.error != ErrorCode::kNone || peer_gone;
  }
  return acked;
}

void best_effort_write(const Socket& sock,
                       std::span<const std::uint8_t> bytes) {
  try {
    static_cast<void>(sock.write_all(bytes));
  } catch (const Error&) {
    // The server hanging up mid-injection is a reaction, not a failure;
    // await_reaction scores it.
  }
}

}  // namespace

const char* to_string(ChaosMode mode) {
  switch (mode) {
    case ChaosMode::kTruncatedFrame: return "truncated-frame";
    case ChaosMode::kCorruptMagic: return "corrupt-magic";
    case ChaosMode::kCorruptPayload: return "corrupt-payload";
    case ChaosMode::kOversizedFrame: return "oversized-frame";
    case ChaosMode::kBadVersion: return "bad-version";
    case ChaosMode::kSlowloris: return "slowloris";
    case ChaosMode::kMidStreamDisconnect: return "mid-stream-disconnect";
    case ChaosMode::kReHello: return "re-hello";
    case ChaosMode::kSamplesBeforeHello: return "samples-before-hello";
    case ChaosMode::kConnectionStorm: return "connection-storm";
  }
  return "unknown";
}

ClientResult run_healthy_client(const Endpoint& ep, const ClientConfig& cfg,
                                std::span<const imu::Sample> samples) {
  ClientResult res;
  Socket sock = connect_to(ep);
  sock.set_nonblocking(true);

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.timeout_s));
  ServerReader reader;
  bool acked = false;
  bool drained_seen = false;
  bool failed = false;
  auto on_frame = [&](const Frame& frame) {
    switch (frame.type) {
      case FrameType::kHelloAck: {
        HelloAck ack;
        if (!parse_hello_ack(frame.payload, ack) ||
            ack.session_id != cfg.session_id) {
          res.detail = "bad HELLO_ACK";
          failed = true;
          return false;
        }
        acked = true;
        return true;
      }
      case FrameType::kEvent:
        if (!parse_events(frame.payload, res.events)) {
          res.detail = "bad EVENT payload";
          failed = true;
          return false;
        }
        return true;
      case FrameType::kDrained:
        if (!parse_drained(frame.payload, res.drained)) {
          res.detail = "bad DRAINED payload";
          failed = true;
          return false;
        }
        drained_seen = true;
        return false;
      case FrameType::kError: {
        WireError err;
        if (parse_error(frame.payload, err)) {
          res.error = err.code;
          res.detail = err.detail;
        } else {
          res.detail = "bad ERROR payload";
        }
        failed = true;
        return false;
      }
      default:
        res.detail = "unexpected frame type from server";
        failed = true;
        return false;
    }
  };

  bool peer_gone = false;
  std::vector<std::uint8_t> tx;
  append_hello(tx, Hello{cfg.session_id, cfg.fs, 0});

  std::size_t sent = 0;
  const std::size_t per_frame =
      std::clamp<std::size_t>(cfg.samples_per_frame, 1, kMaxSamplesPerFrame);
  bool sent_all = write_draining(sock, tx, reader, on_frame, deadline,
                                 &peer_gone);
  while (sent_all && !failed && !peer_gone && sent < samples.size()) {
    const std::size_t n = std::min(per_frame, samples.size() - sent);
    tx.clear();
    append_samples(tx, samples.subspan(sent, n));
    sent_all =
        write_draining(sock, tx, reader, on_frame, deadline, &peer_gone);
    sent += n;
  }
  if (sent_all && !failed && !peer_gone && cfg.send_bye) {
    tx.clear();
    append_bye(tx);
    sent_all =
        write_draining(sock, tx, reader, on_frame, deadline, &peer_gone);
  }

  // Await the final flush: EVENT frames, then DRAINED.
  while (sent_all && !failed && !drained_seen && Clock::now() < deadline) {
    const ServerReader::Pump p = reader.pump(sock, on_frame);
    if (p == ServerReader::Pump::kClosed) {
      if (!drained_seen) res.detail = "server closed before DRAINED";
      break;
    }
    if (p == ServerReader::Pump::kBroken) {
      res.detail = "server stream undecodable";
      break;
    }
    if (p == ServerReader::Pump::kIdle) sleep_s(0.0005);
  }

  // A write failure usually means the server rejected us and hung up; the
  // explaining ERROR frame may still sit unread in the receive buffer
  // (stream data written before a close stays readable). Drain it so the
  // caller sees the typed reason, not just a broken pipe.
  if (!sent_all && !failed) {
    const Clock::time_point grace =
        Clock::now() + std::chrono::milliseconds(200);
    while (!failed && !drained_seen && Clock::now() < grace) {
      const ServerReader::Pump p = reader.pump(sock, on_frame);
      if (p == ServerReader::Pump::kClosed ||
          p == ServerReader::Pump::kBroken) {
        break;
      }
      if (p == ServerReader::Pump::kIdle) sleep_s(0.001);
    }
  }

  if (!sent_all && res.detail.empty()) {
    res.detail = peer_gone ? "server closed mid-stream" : "write timeout";
  }
  if (!drained_seen && res.detail.empty()) res.detail = "no DRAINED frame";
  res.ok = acked && drained_seen && !failed &&
           res.error == ErrorCode::kNone && sent == samples.size();
  return res;
}

ChaosResult run_chaos_client(const Endpoint& ep, const ChaosConfig& cfg) {
  ChaosResult res;
  std::vector<std::uint8_t> tx;

  switch (cfg.mode) {
    case ChaosMode::kCorruptMagic: {
      Socket sock = connect_to(ep);
      sock.set_nonblocking(true);
      RawHeader h;
      h.magic = 0xDEADBEEFu;
      push_header(tx, h);
      best_effort_write(sock, tx);
      await_reaction(sock, cfg.response_timeout_s, res);
      return res;
    }
    case ChaosMode::kBadVersion: {
      Socket sock = connect_to(ep);
      sock.set_nonblocking(true);
      RawHeader h;
      h.version = 9;
      push_header(tx, h);
      best_effort_write(sock, tx);
      await_reaction(sock, cfg.response_timeout_s, res);
      return res;
    }
    case ChaosMode::kOversizedFrame: {
      Socket sock = connect_to(ep);
      sock.set_nonblocking(true);
      RawHeader h;
      h.payload_len = static_cast<std::uint32_t>(kMaxPayloadBytes + 1);
      push_header(tx, h);
      best_effort_write(sock, tx);
      await_reaction(sock, cfg.response_timeout_s, res);
      return res;
    }
    case ChaosMode::kCorruptPayload: {
      Socket sock = connect_to(ep);
      sock.set_nonblocking(true);
      if (!chaos_handshake(sock, cfg, res)) return res;
      // SAMPLES frame whose payload length disagrees with its count.
      std::vector<std::uint8_t> payload;
      push_u32(payload, 4);                 // claims 4 samples...
      payload.resize(payload.size() + 50);  // ...delivers ~1 of bytes
      append_frame(tx, FrameType::kSamples, payload);
      best_effort_write(sock, tx);
      await_reaction(sock, cfg.response_timeout_s, res);
      return res;
    }
    case ChaosMode::kTruncatedFrame: {
      Socket sock = connect_to(ep);
      sock.set_nonblocking(true);
      if (!chaos_handshake(sock, cfg, res)) return res;
      // Promise 8 samples, deliver half a sample, then go silent with the
      // connection held open: only the stall deadline can reclaim this.
      RawHeader h;
      h.payload_len = 4 + 8 * static_cast<std::uint32_t>(kSampleWireBytes);
      push_header(tx, h);
      push_u32(tx, 8);
      tx.resize(tx.size() + kSampleWireBytes / 2);
      best_effort_write(sock, tx);
      await_reaction(sock, cfg.response_timeout_s, res);
      return res;
    }
    case ChaosMode::kSlowloris: {
      Socket sock = connect_to(ep);
      sock.set_nonblocking(true);
      if (!chaos_handshake(sock, cfg, res)) return res;
      RawHeader h;
      h.payload_len = 4 + 8 * static_cast<std::uint32_t>(kSampleWireBytes);
      push_header(tx, h);
      push_u32(tx, 8);
      const Clock::time_point start = Clock::now();
      std::size_t dripped = 0;
      ServerReader reader;
      while (seconds_since(start) < cfg.slowloris_duration_s) {
        const std::uint8_t byte =
            dripped < tx.size() ? tx[dripped] : std::uint8_t{0};
        ++dripped;
        try {
          static_cast<void>(
              sock.write_some(std::span<const std::uint8_t>(&byte, 1)));
        } catch (const Error&) {
          res.server_contained = true;  // evicted mid-drip
          return res;
        }
        bool saw_error = false;
        const ServerReader::Pump p =
            reader.pump(sock, [&](const Frame& frame) {
              if (frame.type == FrameType::kError) {
                WireError err;
                if (parse_error(frame.payload, err)) {
                  res.error = err.code;
                  res.detail = err.detail;
                  saw_error = true;
                }
              }
              return true;
            });
        if (saw_error || p == ServerReader::Pump::kClosed ||
            p == ServerReader::Pump::kBroken) {
          res.server_contained = true;
          return res;
        }
        sleep_s(cfg.slowloris_byte_interval_s);
      }
      res.detail = "server tolerated the drip past the duration bound";
      return res;
    }
    case ChaosMode::kMidStreamDisconnect: {
      Socket sock = connect_to(ep);
      sock.set_nonblocking(true);
      if (!chaos_handshake(sock, cfg, res)) return res;
      std::vector<imu::Sample> samples;
      samples.reserve(cfg.samples_before_disconnect);
      for (std::size_t i = 0; i < cfg.samples_before_disconnect; ++i) {
        samples.push_back(synthetic_sample(i));
      }
      std::span<const imu::Sample> rest(samples);
      ServerReader reader;
      const Clock::time_point deadline =
          Clock::now() +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(cfg.response_timeout_s));
      while (!rest.empty()) {
        const std::size_t n = std::min<std::size_t>(rest.size(), 256);
        tx.clear();
        append_samples(tx, rest.subspan(0, n));
        bool peer_gone = false;
        if (!write_draining(sock, tx, reader,
                            [](const Frame&) { return true; }, deadline,
                            &peer_gone)) {
          break;
        }
        rest = rest.subspan(n);
      }
      // Vanish abruptly: no BYE, just a close. Containment is judged by
      // the caller via server stats (the session must be reclaimed).
      sock.close();
      res.server_contained = true;
      res.detail = "disconnected mid-stream";
      return res;
    }
    case ChaosMode::kReHello: {
      Socket sock = connect_to(ep);
      sock.set_nonblocking(true);
      if (!chaos_handshake(sock, cfg, res)) return res;
      // The fs-mismatch renegotiation attempt: a second HELLO on a live
      // session, announcing a different rate.
      append_hello(tx, Hello{cfg.session_id, cfg.fs * 2.0, 0});
      best_effort_write(sock, tx);
      await_reaction(sock, cfg.response_timeout_s, res);
      return res;
    }
    case ChaosMode::kSamplesBeforeHello: {
      Socket sock = connect_to(ep);
      sock.set_nonblocking(true);
      std::vector<imu::Sample> samples;
      for (std::size_t i = 0; i < 16; ++i) {
        samples.push_back(synthetic_sample(i));
      }
      append_samples(tx, samples);
      best_effort_write(sock, tx);
      await_reaction(sock, cfg.response_timeout_s, res);
      return res;
    }
    case ChaosMode::kConnectionStorm: {
      // Rapid connect/forget cycles. The server must stay reachable
      // (verified by the caller running a healthy client afterwards) and
      // reclaim every stormed connection.
      std::size_t connected = 0;
      for (std::size_t i = 0; i < cfg.storm_connections; ++i) {
        try {
          Socket sock = connect_to(ep);
          ++connected;
          if (i % 2 == 0) {
            // Half the storm leaves a partial header behind.
            tx.clear();
            push_u32(tx, kMagic);
            best_effort_write(sock, tx);
          }
        } catch (const Error&) {
          // Listen backlog overflow under the storm is acceptable
          // shedding, not a containment failure.
        }
      }
      res.server_contained = connected > 0;
      if (connected == 0) res.detail = "no storm connection ever landed";
      return res;
    }
  }
  res.detail = "unknown chaos mode";
  return res;
}

}  // namespace ptrack::net
