// obs_check — CI validator for the observability outputs of ptrack_cli
// and ptrack_serve.
//
//   obs_check --metrics m.json [--trace t.json] [--net|--sched]
//   obs_check --prom scrape.txt [--net]
//
// Metrics snapshot checks:
//   - the file parses with common/json and carries schema
//     "ptrack.metrics.v1";
//   - every metric name matches the ptrack.<layer>.<name> scheme;
//   - every histogram's exported bucket boundaries are strictly ascending
//     and its per-bucket counts (plus overflow) sum to its total count;
//   - the counters every batch run must touch (load, quality, process,
//     projection, segmentation, critical points, stride, batch bookkeeping)
//     are present and non-zero, at least one gait decision was recorded,
//     and the batch latency histograms saw at least one observation;
//   - with --net the required set switches to the ptrack.net.* ingest
//     counters ptrack_serve drives (sessions accepted/closed, bytes in/out,
//     the active-sessions gauge, the queue-depth histogram) — the serve
//     smoke job's variant of the same gate;
//   - with --sched it switches to the ptrack.runtime.sched.* set the
//     scheduler drives (per-lane submission counters, parks/wakeups,
//     the worker and queue-depth gauges, non-empty per-lane queue-wait and
//     exec histograms) — the sched smoke job's variant, fed by
//     bench/sched_latency --metrics-out.
//
// Prometheus exposition checks (--prom, a live /metrics scrape):
//   - every sample name is ptrack_[a-z0-9_]* and its family carries a
//     preceding `# TYPE` of counter, gauge or histogram;
//   - every histogram family: `le` labels parse, ascend strictly and end
//     at +Inf, the cumulative bucket values are monotone non-decreasing,
//     `_sum` is present and `_count` equals the `+Inf` bucket — the
//     self-consistency a live scrape must keep even while writers run;
//   - with --net, ptrack_net_sessions_accepted and ptrack_net_bytes_in
//     must be positive (the serve smoke scrapes mid-storm).
//
// Chrome trace checks:
//   - the file parses and has the trace_event envelope;
//   - every event carries name/ph/ts/tid with ph one of "B"/"E";
//   - per tid the B/E events nest like balanced parentheses (matching
//     names), with nothing left open — the invariant the exporter's
//     re-balancing promises;
//   - at least one "ptrack.core.process" span is present.
//
// Exit code 0 when everything holds, 1 with a message on the first
// violation — cheap enough to run on every CI batch smoke.

#include <cmath>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

using namespace ptrack;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("obs_check: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Same scheme Registry enforces: ptrack.<layer>.<name>, lowercase
/// [a-z0-9_] segments, at least three of them.
bool valid_name(const std::string& name) {
  std::size_t segments = 0;
  std::size_t seg_len = 0;
  for (const char c : name) {
    if (c == '.') {
      if (seg_len == 0) return false;
      ++segments;
      seg_len = 0;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
    ++seg_len;
  }
  if (seg_len == 0) return false;
  ++segments;
  return segments >= 3 && name.rfind("ptrack.", 0) == 0;
}

/// Counters a batch run over at least one loadable trace always drives.
const std::vector<std::string>& required_counters() {
  static const std::vector<std::string> k = {
      "ptrack.imu.load.traces",
      "ptrack.imu.quality.traces",
      "ptrack.core.traces",
      "ptrack.core.projections",
      "ptrack.core.cycles",
      "ptrack.core.critical_points.calls",
      "ptrack.core.stride.estimates",
      "ptrack.runtime.batch.runs",
      "ptrack.runtime.batch.traces_ok",
  };
  return k;
}

/// Counters a ptrack_serve run that served at least one complete healthy
/// session always drives (shed/evicted/errors legitimately stay zero).
const std::vector<std::string>& required_net_counters() {
  static const std::vector<std::string> k = {
      "ptrack.net.sessions.accepted",
      "ptrack.net.sessions.closed",
      "ptrack.net.bytes.in",
      "ptrack.net.bytes.out",
  };
  return k;
}

/// Counters a sched_latency bench run always drives: hops on the latency
/// lane, batch claimers on the throughput lane, and park/wake cycles
/// between measurement rounds (task_exceptions legitimately stays zero).
const std::vector<std::string>& required_sched_counters() {
  static const std::vector<std::string> k = {
      "ptrack.runtime.sched.submitted.latency",
      "ptrack.runtime.sched.submitted.throughput",
      "ptrack.runtime.sched.parks",
      "ptrack.runtime.sched.wakeups",
  };
  return k;
}

int check_sched_metrics(const std::string& path,
                        const std::map<std::string, json::Value>& counters,
                        const std::map<std::string, json::Value>& gauges,
                        const std::map<std::string, json::Value>& histograms) {
  for (const std::string& name : required_sched_counters()) {
    const auto it = counters.find(name);
    if (it == counters.end() || it->second.as_number() <= 0.0) {
      std::cerr << "obs_check: " << path << ": required counter '" << name
                << "' missing or zero\n";
      return 1;
    }
  }
  for (const char* name : {"ptrack.runtime.sched.workers",
                           "ptrack.runtime.sched.depth.latency",
                           "ptrack.runtime.sched.depth.throughput"}) {
    if (gauges.find(name) == gauges.end()) {
      std::cerr << "obs_check: " << path << ": gauge '" << name
                << "' missing\n";
      return 1;
    }
  }
  for (const char* name : {"ptrack.runtime.sched.latency.queue_wait_us",
                           "ptrack.runtime.sched.latency.exec_us",
                           "ptrack.runtime.sched.throughput.queue_wait_us",
                           "ptrack.runtime.sched.throughput.exec_us"}) {
    const auto it = histograms.find(name);
    if (it == histograms.end() ||
        it->second.at("count").as_number() <= 0.0) {
      std::cerr << "obs_check: " << path << ": histogram '" << name
                << "' missing or empty\n";
      return 1;
    }
  }
  std::cout << "obs_check: " << path << ": sched OK (" << counters.size()
            << " counters, " << gauges.size() << " gauges, "
            << histograms.size() << " histograms)\n";
  return 0;
}

int check_metrics(const std::string& path, bool net, bool sched) {
  const json::Value doc = json::parse(slurp(path));
  if (doc.at("schema").as_string() != "ptrack.metrics.v1") {
    std::cerr << "obs_check: " << path << ": unexpected schema\n";
    return 1;
  }
  const json::Value& metrics = doc.at("metrics");
  const auto& counters = metrics.at("counters").members();
  const auto& gauges = metrics.at("gauges").members();
  const auto& histograms = metrics.at("histograms").members();

  for (const auto* group : {&counters, &gauges, &histograms}) {
    for (const auto& [name, value] : *group) {
      static_cast<void>(value);
      if (!valid_name(name)) {
        std::cerr << "obs_check: " << path << ": bad metric name '" << name
                  << "'\n";
        return 1;
      }
    }
  }
  for (const auto& [name, h] : histograms) {
    // Exported boundaries must be strictly ascending — the quantile code
    // and every scraper assume it.
    bool first_bound = true;
    double prev_bound = 0.0;
    for (const json::Value& b : h.at("buckets").items()) {
      const double le = b.at("le").as_number();
      if (!first_bound && le <= prev_bound) {
        std::cerr << "obs_check: " << path << ": histogram '" << name
                  << "' bucket boundaries not strictly ascending\n";
        return 1;
      }
      first_bound = false;
      prev_bound = le;
    }
    // Internal consistency: bucket counts sum to the total count.
    double bucket_sum = h.at("overflow").as_number();
    for (const json::Value& b : h.at("buckets").items()) {
      bucket_sum += b.at("count").as_number();
    }
    if (bucket_sum != h.at("count").as_number()) {
      std::cerr << "obs_check: " << path << ": histogram '" << name
                << "' buckets do not sum to count\n";
      return 1;
    }
  }

  if (sched) return check_sched_metrics(path, counters, gauges, histograms);

  if (net) {
    for (const std::string& name : required_net_counters()) {
      const auto it = counters.find(name);
      if (it == counters.end() || it->second.as_number() <= 0.0) {
        std::cerr << "obs_check: " << path << ": required counter '" << name
                  << "' missing or zero\n";
        return 1;
      }
    }
    if (gauges.find("ptrack.net.sessions.active") == gauges.end()) {
      std::cerr << "obs_check: " << path
                << ": gauge 'ptrack.net.sessions.active' missing\n";
      return 1;
    }
    const auto it = histograms.find("ptrack.net.queue.depth_bytes");
    if (it == histograms.end() ||
        it->second.at("count").as_number() <= 0.0) {
      std::cerr << "obs_check: " << path
                << ": histogram 'ptrack.net.queue.depth_bytes' missing or "
                   "empty\n";
      return 1;
    }
    std::cout << "obs_check: " << path << ": net OK (" << counters.size()
              << " counters, " << gauges.size() << " gauges, "
              << histograms.size() << " histograms)\n";
    return 0;
  }

  for (const std::string& name : required_counters()) {
    const auto it = counters.find(name);
    if (it == counters.end() || it->second.as_number() <= 0.0) {
      std::cerr << "obs_check: " << path << ": required counter '" << name
                << "' missing or zero\n";
      return 1;
    }
  }
  double gait = 0.0;
  for (const char* name : {"ptrack.core.gait.walking",
                           "ptrack.core.gait.stepping",
                           "ptrack.core.gait.interference"}) {
    const auto it = counters.find(name);
    if (it != counters.end()) gait += it->second.as_number();
  }
  if (gait <= 0.0) {
    std::cerr << "obs_check: " << path << ": no gait decisions recorded\n";
    return 1;
  }
  for (const char* name : {"ptrack.runtime.batch.exec_us",
                           "ptrack.runtime.batch.queue_wait_us"}) {
    const auto it = histograms.find(name);
    if (it == histograms.end() ||
        it->second.at("count").as_number() <= 0.0) {
      std::cerr << "obs_check: " << path << ": histogram '" << name
                << "' missing or empty\n";
      return 1;
    }
  }
  std::cout << "obs_check: " << path << ": OK (" << counters.size()
            << " counters, " << gauges.size() << " gauges, "
            << histograms.size() << " histograms)\n";
  return 0;
}

/// Prometheus metric-name charset (after the repo's `.` -> `_` mangling).
bool valid_prom_name(const std::string& name) {
  if (name.rfind("ptrack_", 0) != 0) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int check_prom(const std::string& path, bool net) {
  const std::string text = slurp(path);

  std::map<std::string, std::string> types;  ///< family -> TYPE
  struct HistSeries {
    std::vector<std::pair<double, double>> buckets;  ///< (le, cumulative)
    bool have_sum = false;
    bool have_count = false;
    double count = 0.0;
  };
  std::map<std::string, HistSeries> hists;
  std::map<std::string, double> scalars;

  std::istringstream lines(text);
  std::string line;
  std::size_t lineno = 0;
  const auto fail = [&](const std::string& why) {
    std::cerr << "obs_check: " << path << ":" << lineno << ": " << why
              << "\n";
    return 1;
  };
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream parts(line);
      std::string hash, kind, family, type;
      parts >> hash >> kind >> family >> type;
      if (kind != "TYPE") continue;  // HELP/comments are legal, ignored
      if (!valid_prom_name(family)) {
        return fail("bad family name '" + family + "' in TYPE line");
      }
      if (type != "counter" && type != "gauge" && type != "histogram") {
        return fail("unexpected TYPE '" + type + "'");
      }
      if (!types.emplace(family, type).second) {
        return fail("duplicate TYPE for '" + family + "'");
      }
      continue;
    }

    // Sample: name[{labels}] value
    const std::size_t brace = line.find('{');
    std::string name, le_label;
    std::string value_text;
    if (brace != std::string::npos) {
      name = line.substr(0, brace);
      const std::size_t close = line.find('}', brace);
      if (close == std::string::npos) return fail("unterminated label set");
      const std::string labels = line.substr(brace + 1, close - brace - 1);
      const std::string le_prefix = "le=\"";
      const std::size_t le_at = labels.find(le_prefix);
      if (le_at != std::string::npos) {
        const std::size_t le_end =
            labels.find('"', le_at + le_prefix.size());
        if (le_end == std::string::npos) return fail("unterminated le label");
        le_label = labels.substr(le_at + le_prefix.size(),
                                 le_end - le_at - le_prefix.size());
      }
      value_text = line.substr(close + 1);
    } else {
      const std::size_t sp = line.find(' ');
      if (sp == std::string::npos) return fail("sample line without value");
      name = line.substr(0, sp);
      value_text = line.substr(sp);
    }
    if (!valid_prom_name(name)) {
      return fail("bad sample name '" + name + "'");
    }
    double value = 0.0;
    try {
      value = std::stod(value_text);
    } catch (const std::exception&) {
      return fail("unparseable value for '" + name + "'");
    }

    // Histogram component or scalar? Resolve via the declared TYPEs.
    bool handled = false;
    for (const std::string_view suffix : {"_bucket", "_sum", "_count"}) {
      if (!ends_with(name, suffix)) continue;
      const std::string family =
          name.substr(0, name.size() - suffix.size());
      const auto t = types.find(family);
      if (t == types.end() || t->second != "histogram") continue;
      HistSeries& h = hists[family];
      if (suffix == "_bucket") {
        if (le_label.empty()) return fail("'" + name + "' without le");
        const double le = le_label == "+Inf"
                              ? std::numeric_limits<double>::infinity()
                              : std::stod(le_label);
        h.buckets.emplace_back(le, value);
      } else if (suffix == "_sum") {
        h.have_sum = true;
      } else {
        h.have_count = true;
        h.count = value;
      }
      handled = true;
      break;
    }
    if (handled) continue;
    const auto t = types.find(name);
    if (t == types.end()) {
      return fail("sample '" + name + "' has no preceding TYPE");
    }
    if (t->second == "histogram") {
      return fail("bare sample for histogram family '" + name + "'");
    }
    scalars[name] = value;
  }

  for (const auto& [family, type] : types) {
    if (type != "histogram") {
      if (scalars.find(family) == scalars.end()) {
        std::cerr << "obs_check: " << path << ": TYPE '" << family
                  << "' declared but no sample followed\n";
        return 1;
      }
      continue;
    }
    const auto it = hists.find(family);
    if (it == hists.end() || it->second.buckets.empty()) {
      std::cerr << "obs_check: " << path << ": histogram '" << family
                << "' has no buckets\n";
      return 1;
    }
    const HistSeries& h = it->second;
    for (std::size_t i = 1; i < h.buckets.size(); ++i) {
      if (h.buckets[i].first <= h.buckets[i - 1].first) {
        std::cerr << "obs_check: " << path << ": histogram '" << family
                  << "' le labels not strictly ascending\n";
        return 1;
      }
      if (h.buckets[i].second < h.buckets[i - 1].second) {
        std::cerr << "obs_check: " << path << ": histogram '" << family
                  << "' cumulative buckets decrease\n";
        return 1;
      }
    }
    if (!std::isinf(h.buckets.back().first)) {
      std::cerr << "obs_check: " << path << ": histogram '" << family
                << "' does not end at le=\"+Inf\"\n";
      return 1;
    }
    if (!h.have_sum || !h.have_count) {
      std::cerr << "obs_check: " << path << ": histogram '" << family
                << "' missing _sum or _count\n";
      return 1;
    }
    if (h.count != h.buckets.back().second) {
      std::cerr << "obs_check: " << path << ": histogram '" << family
                << "' _count != +Inf bucket\n";
      return 1;
    }
  }

  if (net) {
    for (const char* name :
         {"ptrack_net_sessions_accepted", "ptrack_net_bytes_in"}) {
      const auto it = scalars.find(name);
      if (it == scalars.end() || it->second <= 0.0) {
        std::cerr << "obs_check: " << path << ": required sample '" << name
                  << "' missing or zero\n";
        return 1;
      }
    }
  }
  std::cout << "obs_check: " << path << ": prom OK (" << types.size()
            << " families, " << hists.size() << " histograms)\n";
  return 0;
}

int check_trace(const std::string& path) {
  const json::Value doc = json::parse(slurp(path));
  const auto& events = doc.at("traceEvents").items();

  // Per-thread span stacks: B pushes, E must match the top's name.
  std::map<double, std::vector<std::string>> stacks;
  std::size_t spans = 0;
  bool saw_process = false;
  for (const json::Value& e : events) {
    const std::string& ph = e.at("ph").as_string();
    const std::string& name = e.at("name").as_string();
    const double ts = e.at("ts").as_number();
    const double tid = e.at("tid").as_number();
    if (ph != "B" && ph != "E") {
      std::cerr << "obs_check: " << path << ": unexpected phase '" << ph
                << "'\n";
      return 1;
    }
    if (ts < 0.0) {
      std::cerr << "obs_check: " << path << ": negative timestamp\n";
      return 1;
    }
    auto& stack = stacks[tid];
    if (ph == "B") {
      stack.push_back(name);
    } else {
      if (stack.empty() || stack.back() != name) {
        std::cerr << "obs_check: " << path << ": unbalanced span '" << name
                  << "' on tid " << tid << "\n";
        return 1;
      }
      stack.pop_back();
      ++spans;
      if (name == "ptrack.core.process") saw_process = true;
    }
  }
  for (const auto& [tid, stack] : stacks) {
    if (!stack.empty()) {
      std::cerr << "obs_check: " << path << ": tid " << tid << " left '"
                << stack.back() << "' open\n";
      return 1;
    }
  }
  if (spans == 0) {
    std::cerr << "obs_check: " << path << ": no spans recorded\n";
    return 1;
  }
  if (!saw_process) {
    std::cerr << "obs_check: " << path << ": no ptrack.core.process span\n";
    return 1;
  }
  std::cout << "obs_check: " << path << ": OK (" << spans
            << " balanced spans, " << stacks.size() << " threads)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    cli::Args args(
        argc, argv,
        {{"metrics", "metrics snapshot JSON written by --metrics-out", "",
          false},
         {"trace", "Chrome trace JSON written by --trace-out", "", false},
         {"prom",
          "Prometheus text exposition scraped from the admin plane's "
          "/metrics",
          "", false},
         {"net",
          "the metrics file comes from ptrack_serve: require the "
          "ptrack.net.* ingest counters instead of the batch pipeline set",
          "", true},
         {"sched",
          "the metrics file comes from bench/sched_latency: require the "
          "ptrack.runtime.sched.* scheduler counters, depth gauges and "
          "per-lane latency histograms instead of the batch pipeline set",
          "", true}});
    if (args.help_requested()) {
      std::cout << args.usage("obs_check");
      return 0;
    }
    if (!args.has("metrics") && !args.has("trace") && !args.has("prom")) {
      std::cerr << "obs_check: pass --metrics, --trace and/or --prom\n";
      return 1;
    }
    int rc = 0;
    if (args.has("metrics")) {
      rc = check_metrics(args.get_string("metrics"), args.get_bool("net"),
                         args.get_bool("sched"));
    }
    if (rc == 0 && args.has("prom")) {
      rc = check_prom(args.get_string("prom"), args.get_bool("net"));
    }
    if (rc == 0 && args.has("trace")) {
      rc = check_trace(args.get_string("trace"));
    }
    return rc;
  } catch (const Error& e) {
    std::cerr << "obs_check: " << e.what() << "\n";
    return 1;
  }
}
