// serve_uds: device streams and a 10 Hz scraper against the real
// ptrack_serve over Unix domain sockets.
//
// Every session replays one recording with one of three frame chunkings
// (small frames, large frames, a mix). Its expected server output (each
// EVENT frame, the drained tail and DRAINED) comes from a local
// StreamingTracker fed the same chunking, and every received frame is
// compared byte for byte.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "core/streaming.hpp"
#include "net/http.hpp"
#include "net/session.hpp"
#include "net/wire.hpp"

namespace e2e {

namespace net = ptrack::net;
namespace core = ptrack::core;

namespace {

constexpr std::size_t kClasses = 3;
constexpr std::size_t kEventsPerFrame = 512;  // the daemon's EVENT split

/// Samples per SAMPLES frame for chunking class `cls`, frame `k`.
std::size_t frame_len(std::size_t cls, std::size_t k) {
  switch (cls) {
    case 0: return 10;                      // per-frame cost dominates
    case 1: return 500;                     // compute dominates
    default: return k % 2 == 0 ? 20 : 250;  // both on one stream
  }
}

struct ExpectedFrame {
  std::size_t trigger = 0;  ///< SAMPLES frame index; SIZE_MAX when drained
  std::vector<std::uint8_t> payload;
};

/// One (recording, chunking) session: its bytes and its expected output.
struct SessionPlan {
  std::size_t rec = 0;
  std::vector<std::uint8_t> bytes;      ///< HELLO, SAMPLES..., BYE
  std::size_t hello_end = 0;
  std::vector<std::size_t> frame_end;   ///< byte offset after frame k
  std::vector<std::size_t> cum_samples; ///< samples through frame k
  std::vector<ExpectedFrame> expected;  ///< EVENT frames, in order
  std::vector<std::uint8_t> drained;    ///< DRAINED payload
  std::size_t steps = 0;
  double distance = 0.0;
  std::vector<double> confirm_delay_s;  ///< streamed events only
};

std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  return {frame.begin() + net::kHeaderBytes, frame.end()};
}

void add_event_frames(SessionPlan& p, std::span<const core::StepEvent> ev,
                      std::size_t trigger) {
  while (!ev.empty()) {
    const std::size_t n = std::min(ev.size(), kEventsPerFrame);
    std::vector<std::uint8_t> f;
    net::append_events(f, ev.subspan(0, n));
    p.expected.push_back({trigger, payload_of(f)});
    ev = ev.subspan(n);
  }
}

SessionPlan build_plan(const Recording& rec, std::size_t rec_idx,
                       std::size_t cls, const Options& opt) {
  SessionPlan p;
  p.rec = rec_idx;
  const auto& samples = rec.trace.samples();
  const double fs = rec.trace.fs();
  net::append_hello(p.bytes, {rec_idx + 1, fs, 0});
  p.hello_end = p.bytes.size();

  core::StreamingConfig cfg;
  cfg.hop_s = 1.0;  // the daemon runs with --hop 1
  core::StreamingTracker oracle(fs, cfg);
  std::vector<core::StepEvent> ev;
  std::size_t pos = 0;
  for (std::size_t k = 0; pos < samples.size(); ++k) {
    const std::size_t n = std::min(frame_len(cls, k), samples.size() - pos);
    const std::span<const ptrack::imu::Sample> chunk(samples.data() + pos, n);
    net::append_samples(p.bytes, chunk);
    for (const auto& s : chunk) oracle.push(s);
    pos += n;
    p.frame_end.push_back(p.bytes.size());
    p.cum_samples.push_back(pos);
    ev.clear();
    oracle.poll_into(ev);
    const double frontier = static_cast<double>(pos - 1) / fs;
    for (const auto& e : ev) p.confirm_delay_s.push_back(frontier - e.t);
    add_event_frames(p, ev, k);
  }
  net::append_bye(p.bytes);
  ev.clear();
  oracle.drain_into(ev);
  add_event_frames(p, ev, SIZE_MAX);
  std::vector<std::uint8_t> d;
  net::append_drained(d, {oracle.steps(), samples.size()});
  p.drained = payload_of(d);
  p.steps = oracle.steps();
  p.distance = oracle.distance();
  if (opt.perturb && rec_idx == 0 && cls == 0) {
    // Smoke test: the first expected EVENT frame is corrupted, so the
    // comparison against the daemon's real output has to fail.
    for (auto& f : p.expected) {
      if (!f.payload.empty()) {
        f.payload.back() ^= 0x01;
        break;
      }
    }
  }
  return p;
}

/// One client connection running sessions back to back.
struct Conn {
  std::size_t cls = 0;
  std::size_t index = 0;     ///< connection number
  std::size_t session_no = 0;
  net::Socket sock;
  net::FrameDecoder dec;
  const SessionPlan* plan = nullptr;
  std::size_t written = 0;   ///< bytes of plan->bytes written
  std::size_t frames_due = 0;  ///< SAMPLES frames released by the schedule
  std::size_t lag_recorded = 0;  ///< frames whose generator lag is recorded
  std::size_t next_expected = 0;
  std::size_t acked_samples = 0;  ///< samples confirmed by EVENT/DRAINED
  std::uint64_t base_samples = 0;  ///< schedule offset of this session
  double session_start = 0.0;
  double opened_at = 0.0;  ///< when this session connected
  bool open = false;
};

class Engine {
 public:
  Engine(const Options& opt, const std::vector<SessionPlan>& plans,
         std::size_t n_recs, Daemon& daemon, Report& rep, ServeFigures& fig)
      : plans_(plans), n_recs_(n_recs), daemon_(daemon),
        rep_(rep), fig_(fig) {
    const std::size_t conns = std::max<unsigned>(1, opt.nproc - 1);
    conns_.resize(conns);
    for (std::size_t c = 0; c < conns; ++c) {
      conns_[c].cls = c % kClasses;
      conns_[c].index = c;
    }
    steps_.assign(n_recs, SIZE_MAX);
    distance_.assign(n_recs, 0.0);
  }

  /// Runs one phase: `rate_ksps` <= 0 offers everything at once
  /// (flow-controlled saturation), otherwise an open-loop schedule.
  /// Returns samples completed per second during the phase.
  double phase(double seconds, double rate_ksps) {
    tracer::Span root("ptrack.bench.serve_phase");
    const bool open_loop = rate_ksps > 0.0;
    const double per_conn =
        open_loop ? rate_ksps * 1e3 / static_cast<double>(conns_.size())
                  : 0.0;
    const double t0 = now_s();
    const double t_end = t0 + seconds;
    t0_ = t0;
    per_conn_ = per_conn;
    for (auto& c : conns_) {
      c.base_samples = 0;
      start_session(c, t0);
    }
    double next_backlog = t0;
    Timed backlog;
    bool stopping = false;
    while (true) {
      const double now = now_s();
      if (!stopping && now >= t_end) stopping = true;
      if (open_loop && !stopping && now >= next_backlog) {
        backlog.emplace_back(now - t0, backlog_samples());
        next_backlog += 0.05;
      }
      // Release due frames and write.
      for (auto& c : conns_) {
        if (!c.open) continue;
        const auto& p = *c.plan;
        if (!open_loop || stopping) {
          c.frames_due = p.frame_end.size();
        } else {
          while (c.frames_due < p.frame_end.size() &&
                 due(c, c.frames_due, per_conn) <= now) {
            ++c.frames_due;
          }
        }
        flush_writes(c, now, open_loop && !stopping, per_conn);
      }
      if (stopping && all_idle()) break;
      if (stopping && now > t_end + 20.0) {
        for (auto& c : conns_) {
          if (c.open) rep_.fail("session did not complete after the phase");
          c.open = false;
        }
        break;
      }
      wait_io(open_loop && !stopping ? next_due(per_conn) : now + 0.01);
      read_all(open_loop && !stopping, per_conn, stopping, t_end);
    }
    if (open_loop && backlog.size() >= 3) {
      fig_.backlog_slope_ksps = slope(backlog) / 1e3;
    }
    // Samples completed per second, upper quartile over one-second windows.
    return windowed_rate(done_, t0, t_end, 1.0) / 1e3;
  }

  const std::vector<std::size_t>& steps() const { return steps_; }
  const std::vector<double>& distance() const { return distance_; }

 private:
  double due(const Conn& c, std::size_t k, double per_conn) const {
    return c.session_start +
           static_cast<double>(c.plan->cum_samples[k]) / per_conn;
  }

  double next_due(double per_conn) const {
    double t = now_s() + 0.01;
    for (const auto& c : conns_) {
      if (c.open && c.frames_due < c.plan->frame_end.size()) {
        t = std::min(t, due(c, c.frames_due, per_conn));
      }
    }
    return t;
  }

  double backlog_samples() const {
    double b = 0.0;
    for (const auto& c : conns_) {
      if (!c.open) continue;
      std::size_t sent = 0;
      for (std::size_t k = 0; k < c.plan->frame_end.size() &&
                              c.plan->frame_end[k] <= c.written;
           ++k) {
        sent = c.plan->cum_samples[k];
      }
      b += static_cast<double>(sent) - static_cast<double>(c.acked_samples);
    }
    return b;
  }

  bool all_idle() const {
    return std::none_of(conns_.begin(), conns_.end(),
                        [](const Conn& c) { return c.open; });
  }

  void start_session(Conn& c, double now) {
    const std::size_t rec =
        (c.index + c.session_no * conns_.size()) % n_recs_;
    ++c.session_no;
    c.plan = &plans_[rec * kClasses + c.cls];
    c.sock = net::connect_to(daemon_.ingest());
    c.sock.set_nonblocking(true);
    c.dec = net::FrameDecoder();
    c.written = 0;
    c.frames_due = 0;
    c.lag_recorded = 0;
    c.next_expected = 0;
    c.acked_samples = 0;
    // The schedule is continuous per connection: this session's samples
    // follow the previous session's on the same timeline.
    c.session_start =
        per_conn_ > 0.0
            ? t0_ + static_cast<double>(c.base_samples) / per_conn_
            : now;
    c.opened_at = now;
    c.open = true;
    ++rep_.attempted;  // the session itself
  }

  void flush_writes(Conn& c, double now, bool record_lag, double per_conn) {
    const auto& p = *c.plan;
    std::size_t limit = p.hello_end;
    if (c.frames_due > 0) limit = p.frame_end[c.frames_due - 1];
    if (c.frames_due == p.frame_end.size()) limit = p.bytes.size();
    if (c.written >= limit) return;
    if (record_lag) {
      for (; c.lag_recorded < c.frames_due; ++c.lag_recorded) {
        fig_.gen_lag_us.push_back((now - due(c, c.lag_recorded, per_conn)) *
                                  1e6);
      }
    } else {
      c.lag_recorded = c.frames_due;
    }
    tracer::Span s("ptrack.net.client_write");
    try {
      c.written += c.sock.write_some(
          {p.bytes.data() + c.written, limit - c.written});
    } catch (const std::exception& e) {
      rep_.fail(std::string("write: ") + e.what());
      c.open = false;
    }
  }

  void wait_io(double until) {
    tracer::Span s("ptrack.bench.wait");
    std::vector<pollfd> fds;
    for (const auto& c : conns_) {
      if (!c.open) continue;
      short ev = POLLIN;
      const std::size_t limit =
          c.frames_due == 0 ? c.plan->hello_end
          : c.frames_due == c.plan->frame_end.size()
              ? c.plan->bytes.size()
              : c.plan->frame_end[c.frames_due - 1];
      if (c.written < limit) ev |= POLLOUT;
      fds.push_back({c.sock.fd(), ev, 0});
    }
    const double d = std::max(0.0, until - now_s());
    timespec ts{static_cast<time_t>(d),
                static_cast<long>((d - std::floor(d)) * 1e9)};
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  }

  void read_all(bool record_latency, double per_conn, bool stopping,
                double t_end) {
    std::uint8_t buf[64 * 1024];
    for (auto& c : conns_) {
      if (!c.open) continue;
      std::ptrdiff_t n = 0;
      {
        tracer::Span s("ptrack.net.client_read");
        try {
          n = c.sock.read_some({buf, sizeof buf});
        } catch (const std::exception& e) {
          rep_.fail(std::string("read: ") + e.what());
          c.open = false;
          continue;
        }
        if (n <= 0) {
          if (n == 0) {
            rep_.fail("daemon closed a session early");
            c.open = false;
          }
          continue;
        }
        c.dec.feed({buf, static_cast<std::size_t>(n)});
      }
      const double arrival = now_s();
      net::Frame f;
      net::DecodeStatus st;
      while (c.open && (st = c.dec.next(f)) == net::DecodeStatus::kFrame) {
        on_frame(c, f, arrival, record_latency, per_conn, stopping, t_end);
      }
      if (c.open && st == net::DecodeStatus::kError) {
        rep_.fail("client decoder poisoned");
        c.open = false;
      }
    }
  }

  void on_frame(Conn& c, const net::Frame& f, double arrival,
                bool record_latency, double per_conn, bool stopping,
                double t_end) {
    tracer::Span s("ptrack.bench.verify");
    const SessionPlan& p = *c.plan;
    switch (f.type) {
      case net::FrameType::kHelloAck:
        return;
      case net::FrameType::kEvent: {
        ++rep_.attempted;
        if (c.next_expected >= p.expected.size()) {
          rep_.fail("unexpected EVENT frame");
          return;
        }
        const ExpectedFrame& x = p.expected[c.next_expected++];
        if (f.payload.size() != x.payload.size() ||
            std::memcmp(f.payload.data(), x.payload.data(),
                        x.payload.size()) != 0) {
          rep_.fail("EVENT frame differs from the local tracker (recording " +
                    std::to_string(p.rec) + ")");
        }
        if (x.trigger != SIZE_MAX) {
          c.acked_samples = p.cum_samples[x.trigger];
          if (record_latency) {
            fig_.event_latency_us.emplace_back(
                arrival, (arrival - due(c, x.trigger, per_conn)) * 1e6);
          }
        }
        return;
      }
      case net::FrameType::kDrained: {
        ++rep_.attempted;
        if (c.next_expected != p.expected.size() ||
            f.payload.size() != p.drained.size() ||
            std::memcmp(f.payload.data(), p.drained.data(),
                        p.drained.size()) != 0) {
          rep_.fail("DRAINED differs from the local tracker");
        }
        c.acked_samples = p.cum_samples.back();
        if (arrival <= t_end && per_conn <= 0.0) {
          done_.push_back({c.opened_at, arrival,
                           static_cast<double>(p.cum_samples.back())});
        }
        fig_.daemon_samples += static_cast<double>(p.cum_samples.back());
        fig_.daemon_frames += static_cast<double>(p.frame_end.size() + 2);
        rep_.attempted += p.frame_end.size();  // frames accepted
        if (steps_[p.rec] == SIZE_MAX) {
          steps_[p.rec] = p.steps;
          distance_[p.rec] = p.distance;
        }
        fig_.confirm_delay_s.insert(fig_.confirm_delay_s.end(),
                                    p.confirm_delay_s.begin(),
                                    p.confirm_delay_s.end());
        c.sock.close();
        c.open = false;
        c.base_samples += p.cum_samples.back();
        if (!stopping) start_session(c, arrival);
        return;
      }
      case net::FrameType::kError: {
        net::WireError e;
        (void)net::parse_error(f.payload, e);
        rep_.fail(std::string("daemon ERROR frame: ") + net::to_string(e.code));
        c.open = false;
        if (!stopping) start_session(c, arrival);
        return;
      }
      default:
        rep_.fail("unexpected frame type from the daemon");
        c.open = false;
        return;
    }
  }

  const std::vector<SessionPlan>& plans_;
  std::size_t n_recs_;
  Daemon& daemon_;
  Report& rep_;
  ServeFigures& fig_;
  std::vector<Conn> conns_;
  std::vector<std::size_t> steps_;
  std::vector<double> distance_;
  double t0_ = 0.0;
  double per_conn_ = 0.0;
  std::vector<Completed> done_;  ///< sessions DRAINED while saturating
};

/// The 10 Hz admin scraper: one connection at a time, beside the ingest.
class Scraper {
 public:
  Scraper(const net::Endpoint& admin, ServeFigures& fig)
      : admin_(admin), fig_(fig), thread_([this] { loop(); }) {}
  ~Scraper() {
    stop_.store(true);
    thread_.join();
  }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

 private:
  void loop() {
    pin_thread(2);
    double next = now_s();
    while (!stop_.load()) {
      const double t = now_s();
      const auto r = net::http_get(admin_, "/metrics", 2.0);
      fig_.scrape_ms.push_back((now_s() - t) * 1e3);
      if (!r.ok || r.status != 200 || r.body.empty()) ++fig_.failed_scrapes;
      next += 0.1;
      while (!stop_.load() && now_s() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }

  net::Endpoint admin_;
  ServeFigures& fig_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

}  // namespace

ServeFigures serve_engine(const Options& opt,
                          const std::vector<Recording>& recs, Daemon& daemon,
                          const ServePlan& plan, Report& rep) {
  std::vector<SessionPlan> plans;
  plans.reserve(recs.size() * kClasses);
  for (std::size_t r = 0; r < recs.size(); ++r) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      plans.push_back(build_plan(recs[r], r, c, opt));
    }
  }
  ServeFigures fig;
  set_phase("serve: ingest");
  Engine engine(opt, plans, recs.size(), daemon, rep, fig);
  pin_thread(1);  // the client; the daemon has slot 0
  const double cpu0 = proc_cpu_s(daemon.pid());
  {
    Scraper scraper(daemon.admin(), fig);
    if (plan.saturation_s > 0.0) {
      fig.ingest_ksps = engine.phase(plan.saturation_s, 0.0);
    }
    if (plan.open_loop_s > 0.0) engine.phase(plan.open_loop_s, plan.rate_ksps);
  }  // the scraper has joined: its figures are ours to read
  unpin_thread();
  rep.attempted += fig.scrape_ms.size();
  for (std::uint64_t i = 0; i < fig.failed_scrapes; ++i) {
    rep.fail("failed /metrics scrape");
  }
  fig.daemon_cpu_s = proc_cpu_s(daemon.pid()) - cpu0;
  fig.daemon_peak_rss_mb = proc_peak_rss_mb(daemon.pid());
  fig.final_metrics = scrape_metrics_json(daemon.admin());
  if (!fig.final_metrics.ok) rep.fail("could not read /metrics.json");
  const auto& m = fig.final_metrics.counters;
  auto count = [&](const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  // Rejected frames and evicted or errored sessions are failures.
  const double bad = count("ptrack.net.frames.rejected") +
                     count("ptrack.net.sessions.evicted") +
                     count("ptrack.net.sessions.errors");
  for (double i = 0; i < bad; i += 1.0) {
    rep.fail("daemon counted a rejected frame or a failed session");
  }
  std::vector<std::size_t> steps = engine.steps();
  std::vector<double> dist = engine.distance();
  std::vector<Recording> seen;
  std::vector<std::size_t> s2;
  std::vector<double> d2;
  for (std::size_t r = 0; r < recs.size(); ++r) {
    if (steps[r] == SIZE_MAX) continue;
    seen.push_back(recs[r]);
    s2.push_back(steps[r]);
    d2.push_back(dist[r]);
  }
  const Accuracy acc = accuracy(seen, s2, d2);
  rep.metric("accuracy.step_error", acc.step_error, "frac");
  rep.metric("accuracy.distance_error", acc.distance_error, "frac");
  return fig;
}

namespace {

struct ServeSize {
  std::size_t recordings;
  double seconds;
};

ServeSize serve_size(const Options& opt) {
  return opt.tiny ? ServeSize{4, 30.0} : ServeSize{16, 60.0};
}

}  // namespace

void run_serve_uds(const Options& opt, Report& rep) {
  const ServeSize size = serve_size(opt);
  // Set-up: synthesis and daemon start, repeated; the median is reported.
  std::vector<double> setups;
  std::vector<Recording> recs;
  std::unique_ptr<Daemon> daemon;
  const int reps = opt.tiny ? 1 : 5;
  set_phase("serve: set-up (synthesis, daemon start)");
  for (int i = 0; i < reps; ++i) {
    daemon.reset();
    const double t = now_s();
    recs = make_recordings(opt.seed, size.recordings, size.seconds);
    daemon = std::make_unique<Daemon>(opt, "serve");
    setups.push_back(now_s() - t);
  }
  rep.metric("setup_s", pct(setups, 50), "s");

  const double s = opt.seconds;
  if (!opt.trace) {
    const ServePlan plan{0.4 * s, 0.6 * s, opt.serve_rate_ksps};
    const ServeFigures fig = serve_engine(opt, recs, *daemon, plan, rep);
    rep.metric("throughput_ksps", fig.ingest_ksps, "ksamples/s");
    // Per-second percentiles (>= 1000 events a second), lower quartile
    // over the open-loop seconds.
    report_latency(fig.event_latency_us, 1.0, 1000, rep);
    rep.metric("confirm_delay_p50_s", pct(fig.confirm_delay_s, 50), "s");
    rep.samples["confirm_delay_s"] =
        static_cast<double>(fig.confirm_delay_s.size());
    rep.metric("peak_rss_mb", fig.daemon_peak_rss_mb, "MB");
    if (!daemon->stop()) rep.fail("daemon did not exit cleanly on SIGTERM");
    return;
  }

  // Traced run: an untraced and a traced pass of the same plan (their
  // difference is the tracing overhead), then the in-process layer probes.
  const ServePlan plan{0.2 * s, 0.3 * s, opt.serve_rate_ksps};
  const ServeFigures plain = serve_engine(opt, recs, *daemon, plan, rep);
  tracer::set_enabled(true);
  const ServeFigures fig = serve_engine(opt, recs, *daemon, plan, rep);
  tracer::set_enabled(false);
  report_trace_split(rep);
  if (!daemon->stop()) rep.fail("daemon did not exit cleanly on SIGTERM");
  rep.metric("trace.overhead_frac",
             fig.ingest_ksps > 0 ? plain.ingest_ksps / fig.ingest_ksps - 1.0
                                 : 0.0,
             "frac");
  run_layer_probes(opt, recs, rep);
  report_daemon_layers(plain, fig, /*open_loop=*/true, rep);
  probe_runtime(opt, recs, rep);
}

void report_daemon_layers(const ServeFigures& plain, const ServeFigures& fig,
                          bool open_loop, Report& rep) {
  const double frames = plain.daemon_frames + fig.daemon_frames;
  const double samples = plain.daemon_samples + fig.daemon_samples;
  const double cpu = plain.daemon_cpu_s + fig.daemon_cpu_s;
  rep.metric("net.daemon_cpu_us_per_ksample",
             samples > 0 ? cpu * 1e6 / (samples / 1e3) : 0.0, "us");
  rep.samples["daemon_frames"] = frames;
  // Daemon CPU per frame minus the in-process session cost per frame is
  // the reactor's residual (poll, syscalls, admin plane).
  const double session_us = rep.metrics["net.session_us_per_frame"].first;
  rep.metric("net.reactor_residual_us_per_frame",
             frames > 0 ? cpu * 1e6 / frames - session_us : 0.0, "us");
  const auto& m = fig.final_metrics.counters;
  auto count = [&](const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const double in = count("ptrack.net.samples.in");
  rep.metric("net.bytes_in_per_sample",
             in > 0 ? count("ptrack.net.bytes.in") / in : 0.0, "bytes");
  rep.metric("net.frames_rejected", count("ptrack.net.frames.rejected"),
             "count");
  rep.metric("net.sessions_evicted", count("ptrack.net.sessions.evicted"),
             "count");
  rep.metric("net.max_queue_depth_bytes",
             fig.final_metrics.max_queue_depth_bytes, "bytes");
  rep.metric("obs.scrape_ms_p50", pct(fig.scrape_ms, 50), "ms");
  rep.samples["scrapes"] = static_cast<double>(fig.scrape_ms.size());
  if (open_loop) {
    rep.metric("gen.lag_us_p99", pct(fig.gen_lag_us, 99), "us");
    rep.samples["gen_lag_us"] = static_cast<double>(fig.gen_lag_us.size());
    rep.metric("net.backlog_slope_ksps", fig.backlog_slope_ksps,
               "ksamples/s");
  }
}

void probe_daemon(const Options& opt, const std::vector<Recording>& recs,
                  bool open_loop, Report& rep) {
  // A short serve_engine pass over (a few of) this workload's recordings.
  const std::vector<Recording> few(
      recs.begin(), recs.begin() + static_cast<std::ptrdiff_t>(
                                       std::min<std::size_t>(recs.size(), 6)));
  Daemon daemon(opt, "probe");
  Report scratch;
  const ServePlan plan{1.0, open_loop ? 1.5 : 0.0, opt.serve_rate_ksps};
  const ServeFigures fig = serve_engine(opt, few, daemon, plan, scratch);
  if (!daemon.stop()) rep.fail("probe daemon did not exit cleanly");
  rep.absorb(scratch, "daemon probe: ");
  report_daemon_layers(ServeFigures{}, fig, open_loop, rep);
}

}  // namespace e2e
