// Clocks, process probes, the daemon child process, the benchmark-side
// span tracer and the shared accuracy/oracle helpers.
#include <fcntl.h>
#include <sched.h>
#include <sys/prctl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "net/http.hpp"
#include "obs/export.hpp"

namespace e2e {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void sleep_until_s(double t) {
  const double d = t - now_s();
  if (d > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

double pct(std::span<const double> xs, double p) {
  return xs.empty() ? 0.0 : ptrack::stats::percentile(xs, p);
}

double mean_of(std::span<const double> xs) {
  return xs.empty() ? 0.0 : ptrack::stats::mean(xs);
}

double slope(const Timed& xy) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(xy.size());
  for (const auto& [x, y] : xy) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double den = n * sxx - sx * sx;
  return den > 0.0 ? (n * sxy - sx * sy) / den : 0.0;
}

double windowed_pct(const Timed& xs, double window_s, double p,
                    std::size_t min_n) {
  if (xs.empty()) return 0.0;
  Timed sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> per_window;
  std::vector<double> cur;
  double w_end = sorted.front().first + window_s;
  auto close = [&] {
    if (cur.size() >= min_n) per_window.push_back(pct(cur, p));
    cur.clear();
  };
  for (const auto& [t, v] : sorted) {
    while (t >= w_end) {
      close();
      w_end += window_s;
    }
    cur.push_back(v);
  }
  close();
  if (per_window.empty()) {
    std::vector<double> all;
    for (const auto& tv : xs) all.push_back(tv.second);
    return pct(all, p);
  }
  return pct(per_window, 25);
}

void report_latency(const Timed& xs, double window_s, std::size_t min_n,
                    Report& rep) {
  rep.metric("latency_p50_us", windowed_pct(xs, window_s, 50, min_n), "us");
  rep.metric("latency_p90_us", windowed_pct(xs, window_s, 90, min_n), "us");
  rep.info["latency_p99_us"] = windowed_pct(xs, window_s, 99, min_n);
  rep.samples["latency_us"] = static_cast<double>(xs.size());
}

double windowed_rate(const std::vector<Completed>& xs, double t0, double t1,
                     double window_s) {
  const auto n = static_cast<std::size_t>((t1 - t0) / window_s);
  if (n == 0) return 0.0;
  std::vector<double> sums(n, 0.0);
  for (const Completed& c : xs) {
    const double len = std::max(c.end - c.start, 1e-9);
    for (std::size_t w = 0; w < n; ++w) {
      const double a = t0 + static_cast<double>(w) * window_s;
      const double overlap =
          std::min(c.end, a + window_s) - std::max(c.start, a);
      if (overlap > 0.0) sums[w] += c.amount * overlap / len;
    }
  }
  for (double& s : sums) s /= window_s;
  return pct(sums, 75);
}

// -------------------------------------------------------------- processes

namespace {

double status_kb(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) return std::stod(line.substr(n));
  }
  return 0.0;
}

}  // namespace

const std::vector<int>& process_cpus() {
  // Read once: pinning a thread narrows what sched_getaffinity reports.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void pin_thread(std::size_t slot) {
  const std::vector<int>& cpus = process_cpus();
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  (void)::sched_setaffinity(0, sizeof set, &set);
}

void unpin_thread() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : process_cpus()) CPU_SET(c, &set);
  (void)::sched_setaffinity(0, sizeof set, &set);
}

double self_peak_rss_mb() {
  return status_kb("/proc/self/status", "VmHWM:") / 1024.0;
}

double proc_peak_rss_mb(pid_t pid) {
  return status_kb("/proc/" + std::to_string(pid) + "/status", "VmHWM:") /
         1024.0;
}

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), {});
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  // Fields after "(comm)": state is field 3; utime/stime are 14/15.
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

namespace {
std::atomic<pid_t> g_daemon_pid{-1};  ///< the live daemon, for the watchdog
std::atomic<const char*> g_phase{"start"};
}  // namespace

void set_phase(const char* name) { g_phase.store(name); }

const char* current_phase() { return g_phase.load(); }

void kill_daemon_now() {
  const pid_t pid = g_daemon_pid.exchange(-1);
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

Daemon::Daemon(const Options& opt, const std::string& tag)
    : ingest_(ptrack::net::Endpoint::uds(opt.work_dir + "/" + tag + ".sock")),
      admin_(ptrack::net::Endpoint::uds(opt.work_dir + "/" + tag + ".adm")) {
  const std::string bin = opt.bin_dir + "/ptrack_serve";
  if (::access(bin.c_str(), X_OK) != 0) {
    throw std::runtime_error("no daemon binary at " + bin);
  }
  const std::string log = opt.work_dir + "/" + tag + ".log";
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, even when it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    pin_thread(0);  // the daemon's reactor owns the first CPU
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execl(bin.c_str(), bin.c_str(), "--uds", ingest_.path.c_str(),
            "--admin-uds", admin_.path.c_str(), "--hop", "1",
            "--log-level", "error", "--quiet", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  g_daemon_pid.store(pid_);
  // Ready when /readyz answers 200.
  const double deadline = now_s() + 20.0;
  while (true) {
    if (::access(admin_.path.c_str(), F_OK) == 0) {
      const auto r = ptrack::net::http_get(admin_, "/readyz", 1.0);
      if (r.ok && r.status == 200) break;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      g_daemon_pid.store(-1);
      pid_ = -1;
      throw std::runtime_error("daemon exited during start-up");
    }
    if (now_s() > deadline) {
      stop();
      throw std::runtime_error("daemon not ready within 20 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Daemon::~Daemon() { stop(); }

bool Daemon::stop() {
  if (pid_ <= 0) return true;
  if (g_daemon_pid.exchange(-1) != pid_) {
    pid_ = -1;  // already killed and reaped by kill_daemon_now()
    return false;
  }
  set_phase("daemon stop (SIGTERM, then wait for exit)");
  ::kill(pid_, SIGTERM);
  int status = 0;
  const double deadline = now_s() + 10.0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  ::unlink(ingest_.path.c_str());
  ::unlink(admin_.path.c_str());
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

DaemonMetrics scrape_metrics_json(const ptrack::net::Endpoint& admin) {
  DaemonMetrics out;
  const auto r = ptrack::net::http_get(admin, "/metrics.json", 5.0);
  if (!r.ok || r.status != 200) return out;
  try {
    const auto snap = ptrack::obs::Snapshot::from_json(
        ptrack::json::parse(r.body), now_s());
    for (const auto& [name, v] : snap.counters) {
      out.counters[name] = static_cast<double>(v);
    }
    const auto it = snap.histograms.find("ptrack.net.queue.depth_bytes");
    if (it != snap.histograms.end()) {
      const auto& h = it->second;
      for (std::size_t b = 0; b < h.counts.size(); ++b) {
        if (h.counts[b] == 0) continue;
        // Upper bound of the highest non-empty bucket; the overflow bucket
        // reports twice the last bound.
        out.max_queue_depth_bytes =
            b < h.bounds.size() ? h.bounds[b] : 2.0 * h.bounds.back();
      }
    }
    out.ok = true;
  } catch (const std::exception&) {
    out.ok = false;
  }
  return out;
}

// ------------------------------------------------------------------ oracle

bool same_events(std::span<const ptrack::core::StepEvent> a,
                 std::span<const ptrack::core::StepEvent> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].t, &b[i].t, sizeof(double)) != 0 ||
        std::memcmp(&a[i].stride, &b[i].stride, sizeof(double)) != 0 ||
        std::memcmp(&a[i].quality, &b[i].quality, sizeof(double)) != 0 ||
        a[i].type != b[i].type || a[i].degraded != b[i].degraded) {
      return false;
    }
  }
  return true;
}

void perturb_event(std::vector<ptrack::core::StepEvent>& events) {
  if (events.empty()) return;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &events.front().stride, sizeof bits);
  bits ^= 1u;
  std::memcpy(&events.front().stride, &bits, sizeof bits);
}

Accuracy accuracy(const std::vector<Recording>& recs,
                  const std::vector<std::size_t>& steps,
                  const std::vector<double>& distance) {
  std::vector<double> se;
  std::vector<double> de;
  for (std::size_t i = 0; i < recs.size() && i < steps.size(); ++i) {
    const Recording& r = recs[i];
    if (r.true_steps == 0 || r.true_distance <= 0.0) continue;
    se.push_back(std::abs(static_cast<double>(steps[i]) -
                          static_cast<double>(r.true_steps)) /
                 static_cast<double>(r.true_steps));
    de.push_back(std::abs(distance[i] - r.true_distance) / r.true_distance);
  }
  return {mean_of(se), mean_of(de)};
}

// ------------------------------------------------------------------ tracer

namespace tracer {
namespace {

struct Open {
  const char* name;
  std::uint64_t start;
  std::uint64_t covered;  ///< children + credited time (ns)
};

struct Event {
  const char* name;
  char ph;
  std::uint64_t ts;
};

struct ThreadBuf {
  std::uint32_t tid = 0;
  std::vector<Open> stack;
  std::vector<Event> events;
};

std::atomic<bool> g_on{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_mu
std::map<std::string, double> g_self;            // guarded by g_mu
double g_root = 0.0;                             // guarded by g_mu
std::size_t g_spans = 0;                         // guarded by g_mu
const std::uint64_t g_epoch = now_ns();

ThreadBuf& buf() {
  thread_local ThreadBuf* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    mine = g_bufs.back().get();
    mine->tid = static_cast<std::uint32_t>(g_bufs.size());
    mine->events.reserve(1 << 16);
  }
  return *mine;
}

std::string layer_of(const char* name) {
  std::string s(name);
  const std::size_t a = s.find('.');
  const std::size_t b = s.find('.', a + 1);
  return (a == std::string::npos || b == std::string::npos)
             ? std::string("bench")
             : s.substr(a + 1, b - a - 1);
}

}  // namespace

void set_enabled(bool on) { g_on.store(on); }
bool enabled() { return g_on.load(std::memory_order_relaxed); }

void begin(const char* name) {
  ThreadBuf& b = buf();
  const std::uint64_t t = now_ns();
  b.stack.push_back({name, t, 0});
  b.events.push_back({name, 'B', t});
}

void end() {
  ThreadBuf& b = buf();
  if (b.stack.empty()) return;
  const std::uint64_t t = now_ns();
  const Open o = b.stack.back();
  b.stack.pop_back();
  b.events.push_back({o.name, 'E', t});
  const std::uint64_t dur = t - o.start;
  if (!b.stack.empty()) b.stack.back().covered += dur;
  const double self =
      static_cast<double>(dur - std::min(dur, o.covered)) * 1e-9;
  std::lock_guard<std::mutex> lock(g_mu);
  ++g_spans;
  const std::string layer = layer_of(o.name);
  if (b.stack.empty()) g_root += static_cast<double>(dur) * 1e-9;
  g_self[b.stack.empty() && layer == "bench" ? std::string("unattributed")
                                             : layer] += self;
}

void credit(const char* layer, double seconds) {
  if (!enabled() || seconds <= 0.0) return;
  ThreadBuf& b = buf();
  if (b.stack.empty()) return;
  b.stack.back().covered += static_cast<std::uint64_t>(seconds * 1e9);
  std::lock_guard<std::mutex> lock(g_mu);
  g_self[layer] += seconds;
}

std::map<std::string, double> self_seconds() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_self;
}

double root_seconds() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_root;
}

std::size_t span_count() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

void write_chrome(const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_bufs) {
    // Only balanced prefixes: spans still open at export are left out.
    std::size_t depth = 0;
    std::size_t last_balanced = 0;
    for (std::size_t i = 0; i < b->events.size(); ++i) {
      depth += b->events[i].ph == 'B' ? 1 : 0;
      depth -= b->events[i].ph == 'E' ? 1 : 0;
      if (depth == 0) last_balanced = i + 1;
    }
    for (std::size_t i = 0; i < last_balanced; ++i) {
      const Event& e = b->events[i];
      out << (first ? "" : ",") << "{\"name\":\"" << e.name << "\",\"ph\":\""
          << e.ph << "\",\"ts\":"
          << static_cast<double>(e.ts - std::min(e.ts, g_epoch)) * 1e-3
          << ",\"pid\":1,\"tid\":" << b->tid << "}";
      first = false;
    }
  }
  out << "]}\n";
}

}  // namespace tracer

void report_trace_split(Report& rep) {
  const auto self = tracer::self_seconds();
  const double root = tracer::root_seconds();
  auto frac = [&](const char* layer) {
    const auto it = self.find(layer);
    return root > 0.0 && it != self.end() ? it->second / root : 0.0;
  };
  rep.metric("trace.unattributed_frac", frac("unattributed"), "frac");
  rep.metric("trace.self_bench_frac", frac("bench"), "frac");
  rep.metric("trace.self_net_frac", frac("net"), "frac");
  rep.metric("trace.self_imu_frac", frac("imu"), "frac");
  rep.metric("trace.self_core_frac", frac("core"), "frac");
  rep.metric("trace.self_runtime_frac", frac("runtime"), "frac");
  rep.samples["trace.spans"] = static_cast<double>(tracer::span_count());
}

void write_trace(const Options& opt, const std::string& path, Report& rep) {
  tracer::write_chrome(path);
  const std::string cmd = opt.bin_dir + "/obs_check --trace " + path +
                          " > " + opt.work_dir + "/obs_check.log 2>&1";
  ++rep.attempted;
  if (std::system(cmd.c_str()) != 0) {
    rep.fail("obs_check rejected the benchmark trace " + path);
  }
}

}  // namespace e2e
