// In-process layer probes for the traced runs: each one times calls into a
// layer's public functions on the workload's own recordings.
#include <algorithm>
#include <filesystem>

#include "bench.hpp"
#include "common/alloc_hooks.hpp"
#include "common/csv.hpp"
#include "core/ptrack.hpp"
#include "core/stages.hpp"
#include "core/streaming.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/workspace.hpp"
#include "imu/quality.hpp"
#include "imu/sample_ring.hpp"
#include "imu/trace_io.hpp"
#include "net/session.hpp"
#include "net/wire.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "runtime/batch_runner.hpp"

namespace e2e {

namespace fs = std::filesystem;
namespace core = ptrack::core;
namespace imu = ptrack::imu;
namespace net = ptrack::net;

namespace {

double ns_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0);
}

void probe_imu_load(const Options& opt, const std::vector<Recording>& recs,
                    Report& rep) {
  const std::string dir = opt.work_dir + "/probe_csv";
  fs::remove_all(dir);
  fs::create_directories(dir);
  double parse_ns = 0.0;
  double build_ns = 0.0;
  double bytes = 0.0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const std::string path = dir + "/" + std::to_string(i) + ".csv";
    imu::save_csv(recs[i].trace, path);
    bytes += static_cast<double>(fs::file_size(path));
    std::uint64_t t = now_ns();
    ptrack::csv::Document doc;
    {
      tracer::Span s("ptrack.imu.csv_parse");
      doc = ptrack::csv::read(path);
    }
    parse_ns += ns_since(t);
    t = now_ns();
    {
      tracer::Span s("ptrack.imu.trace_build");
      (void)imu::trace_from_document(doc, path);
    }
    build_ns += ns_since(t);
  }
  const double n = static_cast<double>(recs.size());
  rep.metric("imu.csv_parse_ms", parse_ns * 1e-6 / n, "ms");
  rep.metric("imu.trace_build_ms", build_ns * 1e-6 / n, "ms");
  rep.metric("imu.load_mb_per_s", bytes / 1e6 / ((parse_ns + build_ns) * 1e-9),
             "MB/s");
  fs::remove_all(dir);
}

void probe_imu_quality(const std::vector<Recording>& recs, Report& rep) {
  double batch_ns = 0.0;
  double inc_ns = 0.0;
  double ring_ns = 0.0;
  double samples = 0.0;
  std::vector<imu::RepairedSample> out;
  out.reserve(1024);
  for (const auto& r : recs) {
    std::uint64_t t = now_ns();
    {
      tracer::Span s("ptrack.imu.assess_and_repair");
      (void)imu::assess_and_repair(r.trace);
    }
    batch_ns += ns_since(t);
    imu::IncrementalQuality q(r.trace.fs());
    t = now_ns();
    {
      tracer::Span s("ptrack.imu.quality_inc");
      for (const auto& x : r.trace.samples()) {
        out.clear();
        q.push(x, out);
      }
    }
    inc_ns += ns_since(t);
    imu::SampleRing ring;
    t = now_ns();
    {
      tracer::Span s("ptrack.imu.ring_push");
      for (const auto& x : r.trace.samples()) {
        ring.push(x, 0);
        // Streaming retention: keep about 20 s, trim in hop-sized steps.
        if (ring.size() > 2100) ring.trim_to(ring.end() - 2000);
      }
    }
    ring_ns += ns_since(t);
    samples += static_cast<double>(r.trace.size());
  }
  rep.metric("imu.quality_batch_us_per_ksample",
             batch_ns * 1e-3 / (samples / 1e3), "us");
  rep.metric("imu.quality_inc_ns_per_sample", inc_ns / samples, "ns");
  rep.metric("imu.ring_push_ns_per_sample", ring_ns / samples, "ns");
}

/// Times every push that runs a hop. Allocations are counted per hop in
/// two places: in the second half of a fresh stream (buffers still growing),
/// and in steady state as the repository defines it (tests/
/// test_noalloc_steady): after one full pass and a flush, then two more
/// passes replaying the recording as a seamless continuation.
void probe_core_stream(const std::vector<Recording>& recs, Report& rep) {
  std::vector<double> hop_us;
  std::uint64_t fresh_allocs = 0;
  std::uint64_t steady_allocs = 0;
  std::vector<core::StepEvent> ev;
  ev.reserve(8192);
  for (const auto& r : recs) {
    core::StreamingConfig cfg;
    cfg.hop_s = 1.0;
    core::StreamingTracker t(r.trace.fs(), cfg);
    const auto& xs = r.trace.samples();
    // Pass 0: fresh stream (timed); passes 1-2: warm continuation after
    // the flush; pass 3: steady state (allocations counted).
    for (int pass = 0; pass < 4; ++pass) {
      ev.clear();
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const std::size_t hops = t.stats().windows_processed;
        const auto a0 = ptrack::alloc::thread_stats().allocations;
        const std::uint64_t t0 = now_ns();
        t.push(xs[i]);
        const double dt = ns_since(t0);
        if (t.stats().windows_processed == hops) continue;
        t.poll_into(ev);
        const auto allocs = ptrack::alloc::thread_stats().allocations - a0;
        if (pass == 0) {
          hop_us.push_back(dt * 1e-3);
          if (i >= xs.size() / 2) fresh_allocs += allocs;
        }
        if (pass == 3) steady_allocs += allocs;
      }
      if (pass == 0) t.drain_into(ev);
    }
  }
  rep.metric("core.hop_us_p50", pct(hop_us, 50), "us");
  rep.metric("core.hop_us_p99", pct(hop_us, 99), "us");
  rep.samples["core.hop_us"] = static_cast<double>(hop_us.size());
  rep.metric("core.steady_hop_allocs", static_cast<double>(steady_allocs),
             "count");
  rep.metric("core.fresh_stream_hop_allocs", static_cast<double>(fresh_allocs),
             "count");
}

void probe_core_stages(const std::vector<Recording>& recs, Report& rep) {
  double project = 0.0;
  double count = 0.0;
  double stride = 0.0;
  double advances = 0.0;
  const core::PTrackConfig pc;
  for (const auto& r : recs) {
    ptrack::dsp::Workspace ws;
    core::StagePipeline pipe(pc.counter, pc.stride, r.trace.fs(), &ws);
    imu::SampleRing ring;
    std::vector<core::StepEvent> ev;
    const std::size_t hop = static_cast<std::size_t>(r.trace.fs());
    std::size_t n = 0;
    for (const auto& x : r.trace.samples()) {
      ring.push(x, 0);
      if (++n % hop != 0) continue;
      pipe.advance(ring, false);
      ev.clear();
      pipe.drain_events(ev);
      pipe.discard_cycles();
      ring.trim_to(std::min(pipe.min_required_index(), ring.end()));
    }
    const auto& st = pipe.stats();
    project += st.project_us;
    count += st.count_us;
    stride += st.stride_us;
    advances += static_cast<double>(st.advances);
  }
  advances = std::max(advances, 1.0);
  rep.metric("core.project_us_per_hop", project / advances, "us");
  rep.metric("core.count_us_per_hop", count / advances, "us");
  rep.metric("core.stride_us_per_hop", stride / advances, "us");
}

/// Returns the summed single-thread process time (s).
double probe_core_batch(const std::vector<Recording>& recs, Report& rep) {
  const core::PTrack pipeline;
  double wall = 0.0;
  core::StageTiming sum;
  for (const auto& r : recs) {
    const std::uint64_t t = now_ns();
    core::TrackResult res;
    {
      tracer::Span s("ptrack.core.process");
      res = pipeline.process(r.trace);
    }
    wall += ns_since(t) * 1e-9;
    sum.quality_us += res.timing.quality_us;
    sum.project_us += res.timing.project_us;
    sum.count_us += res.timing.count_us;
    sum.stride_us += res.timing.stride_us;
  }
  const double n = static_cast<double>(recs.size());
  rep.metric("core.batch_process_ms_per_trace", wall * 1e3 / n, "ms");
  rep.metric("core.timing_quality_us", sum.quality_us / n, "us");
  rep.metric("core.timing_project_us", sum.project_us / n, "us");
  rep.metric("core.timing_count_us", sum.count_us / n, "us");
  rep.metric("core.timing_stride_us", sum.stride_us / n, "us");
  return wall;
}

void probe_dsp(const std::vector<Recording>& recs, Report& rep) {
  ptrack::dsp::Workspace ws;
  double ns = 0.0;
  double samples = 0.0;
  for (const auto& r : recs) {
    const auto cascade =
        ptrack::dsp::butterworth_lowpass(4, 5.0, r.trace.fs());
    const std::size_t n = r.trace.size();
    std::vector<double> ch[3];
    std::vector<double> out[3];
    for (int c = 0; c < 3; ++c) {
      ch[c].resize(n);
      out[c].resize(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ch[0][i] = r.trace[i].accel.x;
      ch[1][i] = r.trace[i].accel.y;
      ch[2][i] = r.trace[i].accel.z;
    }
    const std::span<const double> xs[3] = {ch[0], ch[1], ch[2]};
    const std::span<double> os[3] = {out[0], out[1], out[2]};
    const std::uint64_t t = now_ns();
    {
      tracer::Span s("ptrack.dsp.filtfilt_multi");
      ptrack::dsp::filtfilt_multi_into(
          cascade, xs, std::min<std::size_t>(n - 1, 150), ws, os);
    }
    ns += ns_since(t);
    samples += 3.0 * static_cast<double>(n);
  }
  rep.metric("dsp.filtfilt_multi_ns_per_sample", ns / samples, "ns");
}

void probe_net(const std::vector<Recording>& recs, Report& rep) {
  // Frames as the serve workload chunks them (10, 500 and 20/250 samples).
  double decode_ns = 0.0;
  double frames = 0.0;
  double session_ns = 0.0;
  double session_frames = 0.0;
  net::SessionConfig sc;
  sc.streaming.hop_s = 1.0;
  const std::size_t n_recs = std::min<std::size_t>(recs.size(), 6);
  for (std::size_t r = 0; r < n_recs; ++r) {
    const auto& xs = recs[r].trace.samples();
    for (std::size_t cls = 0; cls < 3; ++cls) {
      std::vector<std::uint8_t> bytes;
      std::vector<std::size_t> ends;
      net::append_hello(bytes, {r + 1, recs[r].trace.fs(), 0});
      ends.push_back(bytes.size());
      for (std::size_t pos = 0, k = 0; pos < xs.size(); ++k) {
        const std::size_t len =
            cls == 0 ? 10 : cls == 1 ? 500 : (k % 2 == 0 ? 20 : 250);
        const std::size_t m = std::min(len, xs.size() - pos);
        net::append_samples(bytes, {xs.data() + pos, m});
        ends.push_back(bytes.size());
        pos += m;
      }
      // Decoder alone, fed in 16 KiB reads like the reactor.
      net::FrameDecoder dec;
      net::Frame f;
      std::uint64_t t = now_ns();
      {
        tracer::Span s("ptrack.net.decode");
        for (std::size_t off = 0; off < bytes.size(); off += 16384) {
          const std::size_t len =
              std::min<std::size_t>(16384, bytes.size() - off);
          dec.feed({bytes.data() + off, len});
          while (dec.next(f) == net::DecodeStatus::kFrame) frames += 1.0;
        }
      }
      decode_ns += ns_since(t);
      // Whole session path: decode, quality, hop, event encode.
      net::Session session(sc);
      t = now_ns();
      {
        tracer::Span s("ptrack.net.session");
        std::size_t prev = 0;
        for (const std::size_t e : ends) {
          (void)session.on_bytes({bytes.data() + prev, e - prev});
          session.consume_out(session.out_pending());
          prev = e;
          session_frames += 1.0;
        }
      }
      session_ns += ns_since(t);
    }
  }
  rep.metric("net.decode_ns_per_frame", decode_ns / std::max(frames, 1.0),
             "ns");
  rep.metric("net.session_us_per_frame",
             session_ns * 1e-3 / std::max(session_frames, 1.0), "us");

  // EVENT encode: the event batches a hop emits (a few steps per frame).
  const core::PTrack pipeline;
  const auto res = pipeline.process(recs.front().trace);
  std::vector<std::uint8_t> out;
  out.reserve(1 << 16);
  double enc_ns = 0.0;
  double enc_frames = 0.0;
  const std::span<const core::StepEvent> ev(res.events);
  for (int rep_i = 0; rep_i < 50 && !ev.empty(); ++rep_i) {
    const std::uint64_t t = now_ns();
    for (std::size_t i = 0; i < ev.size(); i += 2) {
      const std::size_t len = std::min<std::size_t>(2, ev.size() - i);
      net::append_events(out, ev.subspan(i, len));
      enc_frames += 1.0;
    }
    enc_ns += ns_since(t);
    out.clear();
  }
  rep.metric("net.encode_ns_per_event_frame",
             enc_ns / std::max(enc_frames, 1.0), "ns");
}

void probe_obs_runtime(const Options& opt, const std::vector<Recording>& recs,
                       double single_s, Report& rep) {
  std::vector<double> snap_ms;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t t = now_ns();
    (void)ptrack::obs::Snapshot::take();
    snap_ms.push_back(ns_since(t) * 1e-6);
  }
  rep.metric("obs.snapshot_ms", pct(snap_ms, 50), "ms");

  std::vector<imu::Trace> traces;
  for (const auto& r : recs) traces.push_back(r.trace);
  ptrack::runtime::BatchOptions bo;
  bo.threads = opt.nproc;
  ptrack::runtime::BatchRunner runner(core::PTrackConfig{}, bo);
  std::vector<double> on;
  std::vector<double> off;
  for (int i = 0; i < 4; ++i) {
    for (const bool enabled : {true, false}) {
      ptrack::obs::set_enabled(enabled);
      const std::uint64_t t = now_ns();
      {
        tracer::Span s("ptrack.runtime.batch_run");
        (void)runner.run(traces);
      }
      (enabled ? on : off).push_back(ns_since(t) * 1e-9);
    }
  }
  ptrack::obs::set_enabled(true);
  const double t_on = *std::min_element(on.begin(), on.end());
  const double t_off = *std::min_element(off.begin(), off.end());
  rep.metric("obs.batch_overhead_frac", t_on / t_off - 1.0, "frac");
  rep.metric("runtime.batch_parallel_efficiency",
             single_s / (static_cast<double>(runner.threads()) * t_on), "frac");
}

}  // namespace

void run_layer_probes(const Options& opt, const std::vector<Recording>& recs,
                      Report& rep) {
  set_phase("layer probes");
  tracer::set_enabled(true);
  {
    tracer::Span root("ptrack.bench.layer_probes");
    probe_imu_load(opt, recs, rep);
    probe_imu_quality(recs, rep);
    probe_core_stream(recs, rep);
    probe_core_stages(recs, rep);
    const double single_s = probe_core_batch(recs, rep);
    probe_dsp(recs, rep);
    probe_net(recs, rep);
    probe_obs_runtime(opt, recs, single_s, rep);
  }
  tracer::set_enabled(false);
}

}  // namespace e2e
