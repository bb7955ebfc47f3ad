// Session state-machine tests, no sockets involved: bytes in, frames out.
// Covers the HELLO handshake, protocol-order violations, HELLO validation,
// malformed-frame containment, the BYE/drain flush, the admission unit
// (a session's live heap stays within its memory estimate), and the
// central oracle property — a session's event stream is bit-identical
// (at wire precision) to a local StreamingTracker fed the same samples.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/alloc_hooks.hpp"
#include "core/streaming.hpp"
#include "net/session.hpp"
#include "net/wire.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;
using namespace ptrack::net;

namespace {

imu::Trace walking_trace(double seconds, std::uint64_t seed) {
  Rng rng(seed);
  synth::UserProfile user;
  return synth::synthesize(synth::Scenario::pure_walking(seconds), user,
                           synth::SynthOptions{}, rng)
      .trace;
}

/// Decodes every frame a session has queued, consuming out() as a real
/// server write path would.
struct OutReader {
  std::vector<Frame> frames;
  std::vector<std::vector<std::uint8_t>> payload_copies;
  FrameDecoder decoder;

  void pull(Session& session) {
    while (session.out_pending() > 0) {
      const std::span<const std::uint8_t> pending = session.out();
      decoder.feed(pending);
      session.consume_out(pending.size());
      Frame frame;
      while (decoder.next(frame) == DecodeStatus::kFrame) {
        // Copy the payload: the decoder buffer is reused across pulls.
        payload_copies.emplace_back(frame.payload.begin(),
                                    frame.payload.end());
        frames.push_back(
            Frame{frame.type, std::span<const std::uint8_t>(
                                  payload_copies.back())});
      }
      EXPECT_EQ(decoder.error(), ErrorCode::kNone);
    }
  }
};

Session::IoResult feed(Session& session,
                       const std::vector<std::uint8_t>& bytes,
                       std::size_t chunk = 4096) {
  Session::IoResult r = Session::IoResult::kOk;
  for (std::size_t i = 0; i < bytes.size(); i += chunk) {
    const std::size_t n = std::min(chunk, bytes.size() - i);
    r = session.on_bytes({bytes.data() + i, n});
  }
  return r;
}

std::vector<std::uint8_t> hello_bytes(std::uint64_t id, double fs,
                                      std::uint8_t precision = 0) {
  std::vector<std::uint8_t> out;
  append_hello(out, Hello{id, fs, precision});
  return out;
}

WireError expect_single_error(Session& session) {
  OutReader reader;
  reader.pull(session);
  WireError err;
  bool found = false;
  for (const Frame& f : reader.frames) {
    if (f.type == FrameType::kError) {
      EXPECT_FALSE(found) << "more than one ERROR frame";
      EXPECT_TRUE(parse_error(f.payload, err));
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no ERROR frame queued";
  return err;
}

}  // namespace

TEST(NetSession, HelloHandshake) {
  Session session{SessionConfig{}};
  EXPECT_EQ(session.state(), Session::State::kAwaitHello);
  EXPECT_FALSE(session.hello_done());

  EXPECT_EQ(feed(session, hello_bytes(77, 104.0)), Session::IoResult::kOk);
  EXPECT_EQ(session.state(), Session::State::kStreaming);
  EXPECT_TRUE(session.hello_done());
  EXPECT_EQ(session.id(), 77u);
  EXPECT_DOUBLE_EQ(session.fs(), 104.0);

  OutReader reader;
  reader.pull(session);
  ASSERT_EQ(reader.frames.size(), 1u);
  EXPECT_EQ(reader.frames[0].type, FrameType::kHelloAck);
  HelloAck ack;
  ASSERT_TRUE(parse_hello_ack(reader.frames[0].payload, ack));
  EXPECT_EQ(ack.session_id, 77u);
  EXPECT_EQ(ack.version, static_cast<std::uint32_t>(kProtocolVersion));
  EXPECT_EQ(session.counters().frames_ok, 1u);
}

TEST(NetSession, SamplesBeforeHelloRejected) {
  Session session{SessionConfig{}};
  std::vector<std::uint8_t> bytes;
  const std::vector<imu::Sample> samples(4);
  append_samples(bytes, samples);
  EXPECT_EQ(feed(session, bytes), Session::IoResult::kClose);
  EXPECT_EQ(session.state(), Session::State::kClosing);
  EXPECT_EQ(expect_single_error(session).code, ErrorCode::kProtocol);
  EXPECT_EQ(session.counters().frames_rejected, 1u);
}

TEST(NetSession, ReHelloRejected) {
  Session session{SessionConfig{}};
  EXPECT_EQ(feed(session, hello_bytes(1, 100.0)), Session::IoResult::kOk);
  // The fs-mismatch renegotiation attempt: second HELLO, different rate.
  EXPECT_EQ(feed(session, hello_bytes(1, 200.0)),
            Session::IoResult::kClose);
  EXPECT_EQ(expect_single_error(session).code, ErrorCode::kProtocol);
}

TEST(NetSession, HelloValidation) {
  {  // fs out of range
    Session session{SessionConfig{}};
    EXPECT_EQ(feed(session, hello_bytes(1, 1e9)), Session::IoResult::kClose);
    EXPECT_EQ(expect_single_error(session).code, ErrorCode::kBadHello);
  }
  {  // NaN fs
    Session session{SessionConfig{}};
    EXPECT_EQ(feed(session, hello_bytes(1, std::nan(""))),
              Session::IoResult::kClose);
    EXPECT_EQ(expect_single_error(session).code, ErrorCode::kBadHello);
  }
  {  // unknown precision
    Session session{SessionConfig{}};
    EXPECT_EQ(feed(session, hello_bytes(1, 100.0, 7)),
              Session::IoResult::kClose);
    EXPECT_EQ(expect_single_error(session).code, ErrorCode::kBadHello);
  }
  {  // float32 (precision 1): streams are served in double only
    Session session{SessionConfig{}};
    EXPECT_EQ(feed(session, hello_bytes(1, 100.0, 1)),
              Session::IoResult::kClose);
    const WireError err = expect_single_error(session);
    EXPECT_EQ(err.code, ErrorCode::kBadHello);
    EXPECT_EQ(err.detail, "unsupported precision");
    EXPECT_EQ(session.counters().frames_rejected, 1u);
  }
}

TEST(NetSession, MalformedFrameClosesWithError) {
  Session session{SessionConfig{}};
  std::vector<std::uint8_t> bytes = hello_bytes(5, 100.0);
  bytes[0] ^= 0xFF;  // corrupt the magic
  EXPECT_EQ(feed(session, bytes), Session::IoResult::kClose);
  EXPECT_EQ(expect_single_error(session).code, ErrorCode::kBadMagic);
  EXPECT_EQ(session.counters().frames_rejected, 1u);
  // Poisoned for good: further bytes don't reopen it.
  EXPECT_EQ(feed(session, hello_bytes(5, 100.0)),
            Session::IoResult::kClose);
}

TEST(NetSession, OversizedSampleCountRejected) {
  SessionConfig cfg;
  cfg.max_samples_per_frame = 16;
  Session session{cfg};
  EXPECT_EQ(feed(session, hello_bytes(5, 100.0)), Session::IoResult::kOk);
  std::vector<std::uint8_t> bytes;
  const std::vector<imu::Sample> samples(17);  // one past the policy bound
  append_samples(bytes, samples);
  EXPECT_EQ(feed(session, bytes), Session::IoResult::kClose);
  EXPECT_EQ(expect_single_error(session).code, ErrorCode::kMalformedFrame);
}

TEST(NetSession, EventsMatchLocalTrackerOracle) {
  const imu::Trace trace = walking_trace(30.0, 901);

  SessionConfig cfg;
  Session session{cfg};
  OutReader reader;
  ASSERT_EQ(feed(session, hello_bytes(11, trace.fs())),
            Session::IoResult::kOk);
  std::vector<std::uint8_t> bytes;
  std::size_t i = 0;
  while (i < trace.size()) {
    const std::size_t n = std::min<std::size_t>(256, trace.size() - i);
    bytes.clear();
    append_samples(bytes, std::span<const imu::Sample>(
                              trace.samples().data() + i, n));
    // Uneven chunking through the decoder: reassembly must be seamless.
    ASSERT_EQ(feed(session, bytes, 1000), Session::IoResult::kOk);
    reader.pull(session);
    i += n;
  }
  bytes.clear();
  append_bye(bytes);
  EXPECT_EQ(feed(session, bytes), Session::IoResult::kClose);
  reader.pull(session);

  std::vector<core::StepEvent> wire_events;
  Drained drained;
  bool drained_seen = false;
  for (const Frame& f : reader.frames) {
    if (f.type == FrameType::kEvent) {
      ASSERT_TRUE(parse_events(f.payload, wire_events));
    } else if (f.type == FrameType::kDrained) {
      ASSERT_TRUE(parse_drained(f.payload, drained));
      drained_seen = true;
    }
  }
  ASSERT_TRUE(drained_seen);
  EXPECT_EQ(drained.samples_total, trace.size());
  EXPECT_EQ(drained.events_total, wire_events.size());

  // Oracle: the same pipeline fed locally. The wire carries t/stride as
  // f64 (exact) and quality as f32 (rounded) — compare at wire precision.
  core::StreamingTracker oracle(trace.fs(), cfg.streaming);
  for (const imu::Sample& s : trace.samples()) oracle.push(s);
  std::vector<core::StepEvent> expected;
  oracle.drain_into(expected);

  ASSERT_EQ(wire_events.size(), expected.size());
  ASSERT_GT(wire_events.size(), 20u);  // ~55 steps in 30 s of walking
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(wire_events[k].t, expected[k].t);
    EXPECT_EQ(wire_events[k].stride, expected[k].stride);
    EXPECT_EQ(static_cast<float>(wire_events[k].quality),
              static_cast<float>(expected[k].quality));
    EXPECT_EQ(wire_events[k].type, expected[k].type);
    EXPECT_EQ(wire_events[k].degraded, expected[k].degraded);
  }
  EXPECT_EQ(session.counters().samples, trace.size());
  EXPECT_EQ(session.counters().events, expected.size());
}

TEST(NetSession, RejectReplacesQueuedOutput) {
  Session session{SessionConfig{}};
  EXPECT_EQ(feed(session, hello_bytes(3, 100.0)), Session::IoResult::kOk);
  EXPECT_GT(session.out_pending(), 0u);  // the HELLO_ACK
  session.reject(ErrorCode::kSlowConsumer, 0, "too slow");
  const WireError err = expect_single_error(session);
  EXPECT_EQ(err.code, ErrorCode::kSlowConsumer);
  EXPECT_EQ(session.state(), Session::State::kClosing);
}

TEST(NetSession, DrainWithoutHelloJustCloses) {
  Session session{SessionConfig{}};
  session.drain();
  EXPECT_EQ(session.state(), Session::State::kClosing);
  EXPECT_EQ(session.out_pending(), 0u);  // nothing to flush, nothing sent
}

TEST(NetSession, MemoryEstimateGrowsWithRate) {
  const SessionConfig cfg;
  const std::size_t slow = session_memory_estimate(cfg, 25.0);
  const std::size_t fast = session_memory_estimate(cfg, 800.0);
  EXPECT_GT(fast, slow);
  Session session{cfg};
  const std::size_t pre_hello = session.memory_estimate();
  ASSERT_EQ(feed(session, hello_bytes(1, 800.0)), Session::IoResult::kOk);
  EXPECT_GT(session.memory_estimate(), pre_hello);
  EXPECT_EQ(session.memory_estimate(), fast);
}

// Admission charges a connection session_memory_estimate(cfg, 0.0) until
// HELLO names its rate: the decoder and output budgets, no tracker bytes.
TEST(NetSession, PreHelloEstimateIsTheAdmissionCharge) {
  const SessionConfig cfg;
  const Session session{cfg};
  EXPECT_EQ(session.memory_estimate(), session_memory_estimate(cfg, 0.0));
  EXPECT_EQ(session_memory_estimate(cfg, 0.0),
            kHeaderBytes + kMaxPayloadBytes + kReadChunkBytes +
                cfg.out_buf_limit);
}

// The admission unit bounds a real session: across the HELLO rate range,
// the peak live heap of one session, sampled after every frame of a 65 s
// walk whose output a client drains as it goes, stays within the
// post-HELLO memory_estimate() the server charges it.
TEST(NetSession, MemoryEstimateBoundsPeakLiveHeap) {
  const SessionConfig cfg;
  for (const double fs : {1.0, 25.0, 100.0, 400.0, 1024.0}) {
    SCOPED_TRACE(::testing::Message() << "fs " << fs << " Hz");
    Rng rng(4242);
    synth::SynthOptions opts;
    opts.device_fs = fs;
    opts.internal_fs = std::max(opts.internal_fs, fs);
    const imu::Trace trace =
        synth::synthesize(synth::Scenario::pure_walking(65.0),
                          synth::UserProfile{}, opts, rng)
            .trace;
    ASSERT_GE(static_cast<double>(trace.size()), 60.0 * fs);
    // Quarter-second SAMPLES frames, encoded into one client buffer
    // reserved before any baseline so only the session's heap is measured.
    const std::size_t per_frame =
        std::max<std::size_t>(1, static_cast<std::size_t>(fs / 4.0));
    std::vector<std::uint8_t> bytes;
    bytes.reserve(kHeaderBytes + kMaxPayloadBytes);

    std::int64_t peak = 0;
    std::size_t estimate = 0;
    const auto run = [&](std::int64_t before) {
      auto session = std::make_unique<Session>(cfg);
      const auto send = [&] {
        const Session::IoResult r = session->on_bytes(bytes);
        session->consume_out(session->out_pending());
        peak = std::max(
            peak, static_cast<std::int64_t>(alloc::live_bytes()) - before);
        return r;
      };
      bytes.clear();
      append_hello(bytes, Hello{1, fs, 0});
      EXPECT_EQ(send(), Session::IoResult::kOk);
      estimate = session->memory_estimate();
      for (std::size_t i = 0; i < trace.size(); i += per_frame) {
        bytes.clear();
        append_samples(bytes, std::span<const imu::Sample>(
                                  trace.samples().data() + i,
                                  std::min(per_frame, trace.size() - i)));
        EXPECT_EQ(send(), Session::IoResult::kOk);
      }
      bytes.clear();
      append_bye(bytes);
      EXPECT_EQ(send(), Session::IoResult::kClose);
      EXPECT_EQ(session->counters().samples, trace.size());
    };
    // A first session takes what sessions share (the gravity weight
    // tables of this fs, the thread's filter scratch, telemetry handles),
    // so the second one's peak is its own heap.
    run(0);
    peak = 0;
    run(static_cast<std::int64_t>(alloc::live_bytes()));
    EXPECT_EQ(estimate, session_memory_estimate(cfg, fs));
    EXPECT_LE(peak, static_cast<std::int64_t>(estimate))
        << "session peak live heap " << peak / 1024 << " KB, estimate "
        << estimate / 1024 << " KB";
  }
}
