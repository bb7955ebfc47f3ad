// PTrack ingest wire protocol v1: versioned, length-prefixed binary frames
// over a byte stream (TCP or Unix domain socket).
//
// Every frame is a 12-byte header followed by a bounded payload:
//
//   offset  size  field
//        0     4  magic "PTRK" (0x4B525450 little-endian)
//        4     1  protocol version (currently 1)
//        5     1  frame type (FrameType)
//        6     2  flags (must be 0 in v1)
//        8     4  payload length (<= kMaxPayloadBytes)
//
// Client -> server: HELLO (session id, sample rate, precision), SAMPLES
// (bounded block of 6-channel f64 readings — no timestamps on the wire, the
// session assigns t = index/fs exactly like core::StreamingTracker),
// BYE (drain request). Server -> client: HELLO_ACK, EVENT (finalized step
// events), ERROR (code + optional RETRY-AFTER hint), DRAINED (final
// stats after a BYE or a server-side drain).
//
// Robustness contract: FrameDecoder is a strict bounded incremental parser.
// It never allocates past its construction-time reservation, never reads
// past the buffered bytes, rejects bad magic / unknown versions / nonzero
// flags / unknown types / oversized payloads with a typed ErrorCode, and
// poisons itself after the first error (a stream that has desynchronized
// once can never be trusted to resynchronize). Truncated frames are simply
// kNeedMore — the *session* layer decides when a stall has lasted too long.
// All multi-byte fields are little-endian; integers are composed bytewise
// so the codec is byte-order portable.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hpp"
#include "imu/sample.hpp"

namespace ptrack::net {

inline constexpr std::uint32_t kMagic = 0x4B525450u;  // "PTRK"
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 12;
/// Hard payload bound; anything larger is rejected before buffering.
inline constexpr std::size_t kMaxPayloadBytes = 64 * 1024;
/// Samples per SAMPLES frame (48 wire bytes each).
inline constexpr std::size_t kMaxSamplesPerFrame = 1024;
inline constexpr std::size_t kSampleWireBytes = 48;  // 6 x f64
inline constexpr std::size_t kEventWireBytes = 24;
inline constexpr std::size_t kHelloPayloadBytes = 24;
inline constexpr std::size_t kHelloAckPayloadBytes = 16;
inline constexpr std::size_t kDrainedPayloadBytes = 16;
inline constexpr std::size_t kMaxErrorDetailBytes = 256;

enum class FrameType : std::uint8_t {
  // client -> server
  kHello = 0x01,
  kSamples = 0x02,
  kBye = 0x03,
  // server -> client
  kHelloAck = 0x10,
  kEvent = 0x11,
  kError = 0x12,
  kDrained = 0x13,
};

/// Typed reason a frame or a session was rejected. Carried on the wire in
/// ERROR frames (u16) and surfaced by FrameDecoder::error().
enum class ErrorCode : std::uint16_t {
  kNone = 0,
  kMalformedFrame = 1,  ///< structure violation inside a known frame type
  kOversizedFrame = 2,  ///< payload length beyond kMaxPayloadBytes
  kBadMagic = 3,        ///< stream desynchronized or not speaking PTRK
  kBadVersion = 4,      ///< unknown protocol version
  kProtocol = 5,        ///< valid frame, wrong state (re-HELLO, early SAMPLES)
  kBadHello = 6,        ///< HELLO fields out of range (fs, precision)
  kOverloaded = 7,      ///< admission shed; retry_after_s is the hint
  kSlowConsumer = 8,    ///< client not reading its event stream
  kIdleTimeout = 9,     ///< no complete frame within the idle deadline
  kShuttingDown = 10,   ///< server draining; stream not accepted
};

[[nodiscard]] const char* to_string(ErrorCode code);
[[nodiscard]] const char* to_string(FrameType type);
[[nodiscard]] bool known_frame_type(std::uint8_t raw);

// ---------------------------------------------------------------------------
// Payload structs

/// HELLO payload: u64 session id, f64 sample rate, u8 precision, 7 reserved
/// bytes (must be 0). The codec carries any precision byte; a session
/// serves precision 0 (double) only and answers any other value with
/// ERROR kBadHello "unsupported precision".
struct Hello {
  std::uint64_t session_id = 0;
  double fs = 0.0;
  std::uint8_t precision = 0;
};

/// HELLO_ACK payload: u64 session id (echo), u32 max samples per SAMPLES
/// frame the server accepts, u32 negotiated protocol version.
struct HelloAck {
  std::uint64_t session_id = 0;
  std::uint32_t max_samples_per_frame = 0;
  std::uint32_t version = 0;
};

/// ERROR payload: u16 code, u16 retry-after hint (s; 0 = do not retry),
/// u32 detail length, detail bytes (<= kMaxErrorDetailBytes, not
/// NUL-terminated).
struct WireError {
  ErrorCode code = ErrorCode::kNone;
  std::uint16_t retry_after_s = 0;
  std::string detail;
};

/// DRAINED payload: u64 total events emitted, u64 total samples ingested.
struct Drained {
  std::uint64_t events_total = 0;
  std::uint64_t samples_total = 0;
};

/// Zero-copy view over a validated SAMPLES payload. `data` points at
/// count * kSampleWireBytes bytes borrowed from the decoder buffer; decode
/// individual samples with sample_at. Valid until the decoder is fed again.
struct SampleBlockView {
  std::uint32_t count = 0;
  const std::uint8_t* data = nullptr;
};

/// Decodes sample `i` of a validated block (ax ay az gx gy gz as f64).
/// The timestamp is left 0 — the receiving session owns the time base.
[[nodiscard]] imu::Sample sample_at(const SampleBlockView& block,
                                    std::size_t i);

// ---------------------------------------------------------------------------
// Encoders (append to a byte vector; the caller owns buffering/limits)

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload);
void append_hello(std::vector<std::uint8_t>& out, const Hello& hello);
void append_hello_ack(std::vector<std::uint8_t>& out, const HelloAck& ack);
void append_bye(std::vector<std::uint8_t>& out);
/// Encodes samples[first, first+count) as one SAMPLES frame
/// (count <= kMaxSamplesPerFrame).
void append_samples(std::vector<std::uint8_t>& out,
                    std::span<const imu::Sample> samples);
/// Encodes up to kMaxPayloadBytes worth of events as one EVENT frame
/// (events.size() bounded by the caller; asserts it fits).
void append_events(std::vector<std::uint8_t>& out,
                   std::span<const core::StepEvent> events);
void append_error(std::vector<std::uint8_t>& out, ErrorCode code,
                  std::uint16_t retry_after_s, std::string_view detail);
void append_drained(std::vector<std::uint8_t>& out, const Drained& drained);

// ---------------------------------------------------------------------------
// Payload parsers (strict: exact sizes, bounded counts, zero reserved
// bytes). Return false on any violation, leaving `out` unspecified.

[[nodiscard]] bool parse_hello(std::span<const std::uint8_t> payload,
                               Hello& out);
[[nodiscard]] bool parse_hello_ack(std::span<const std::uint8_t> payload,
                                   HelloAck& out);
[[nodiscard]] bool parse_samples(std::span<const std::uint8_t> payload,
                                 SampleBlockView& out);
[[nodiscard]] bool parse_events(std::span<const std::uint8_t> payload,
                                std::vector<core::StepEvent>& out);
[[nodiscard]] bool parse_error(std::span<const std::uint8_t> payload,
                               WireError& out);
[[nodiscard]] bool parse_drained(std::span<const std::uint8_t> payload,
                                 Drained& out);

// ---------------------------------------------------------------------------
// Incremental decoder

/// One decoded frame. `payload` borrows the decoder's buffer: it is valid
/// until the next feed() or next() call.
struct Frame {
  FrameType type = FrameType::kHello;
  std::span<const std::uint8_t> payload;
};

enum class DecodeStatus : std::uint8_t {
  kNeedMore,  ///< no complete frame buffered yet
  kFrame,     ///< one frame produced
  kError,     ///< stream poisoned; see error()
};

/// Strict bounded incremental frame parser. Feed raw bytes as they arrive,
/// then pull frames until kNeedMore. All storage is reserved up front
/// (header + max payload + one read chunk); feeding beyond that bound —
/// which a disciplined reader that drains frames between feeds can never
/// do — poisons the decoder instead of growing.
class FrameDecoder {
 public:
  /// `read_chunk_hint`: largest single feed() the owner will issue; sizes
  /// the reservation so steady-state operation never reallocates.
  explicit FrameDecoder(std::size_t max_payload = kMaxPayloadBytes,
                        std::size_t read_chunk_hint = 16 * 1024);

  /// Appends raw stream bytes to the internal buffer.
  void feed(std::span<const std::uint8_t> bytes);

  /// Extracts the next complete frame, validating the header. On kError
  /// the decoder is poisoned: every later call returns the same error.
  [[nodiscard]] DecodeStatus next(Frame& out);

  [[nodiscard]] ErrorCode error() const { return error_; }
  /// Static description of the poisoning error ("" when healthy).
  [[nodiscard]] const char* error_detail() const { return detail_; }

  /// Bytes buffered but not yet consumed (the per-connection ingest-queue
  /// depth the server reports).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

  /// True when a frame header has been seen but its payload has not fully
  /// arrived — the "trickling writer" state the session stall deadline
  /// guards against.
  [[nodiscard]] bool mid_frame() const;

 private:
  void poison(ErrorCode code, const char* detail);
  void compact(std::size_t incoming);

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;        ///< consumed prefix inside buf_
  std::size_t max_payload_;
  std::size_t capacity_;       ///< hard bound on buf_.size()
  ErrorCode error_ = ErrorCode::kNone;
  const char* detail_ = "";
};

}  // namespace ptrack::net
