#include "obs/export.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>

#include "common/error.hpp"

namespace ptrack::obs {

namespace {

/// Shortest round-trippable decimal for a double (Prometheus sample and
/// `le` label values). %.17g always round-trips; try shorter first so the
/// common bounds render as "10", not "10.000000000000000".
std::string format_double(double v) {
  char buf[64];
  for (const int prec : {6, 15, 17}) {
    const int n = std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    expects(n > 0 && static_cast<std::size_t>(n) < sizeof(buf),
            "format_double: buffer");
    double back = 0.0;
    if (std::sscanf(buf, "%lf", &back) == 1 && back == v) break;
  }
  return buf;
}

std::uint64_t non_negative_u64(double v, const char* what) {
  expects(v >= 0.0, what);
  return static_cast<std::uint64_t>(v);
}

Histogram::Snapshot histogram_from_json(const json::Value& h) {
  Histogram::Snapshot snap;
  snap.count = non_negative_u64(h.at("count").as_number(),
                                "metrics json: histogram count >= 0");
  snap.sum = h.at("sum").as_number();
  for (const json::Value& b : h.at("buckets").items()) {
    const double le = b.at("le").as_number();
    expects(snap.bounds.empty() || le > snap.bounds.back(),
            "metrics json: bucket bounds strictly ascending");
    snap.bounds.push_back(le);
    snap.counts.push_back(non_negative_u64(
        b.at("count").as_number(), "metrics json: bucket count >= 0"));
  }
  expects(!snap.bounds.empty(), "metrics json: histogram has buckets");
  snap.counts.push_back(non_negative_u64(h.at("overflow").as_number(),
                                         "metrics json: overflow >= 0"));
  return snap;
}

/// Windowed per-bucket counts for one histogram, handling registration
/// mid-window (no prev), process restarts (any bucket moved backwards)
/// and changed bounds (re-registration) by falling back to `cur` alone.
HistogramDelta histogram_delta(const Histogram::Snapshot* prev,
                               const Histogram::Snapshot& cur,
                               double interval_s) {
  std::vector<std::uint64_t> window = cur.counts;
  std::uint64_t count = cur.count;
  double sum = cur.sum;
  const bool comparable = prev != nullptr && prev->bounds == cur.bounds &&
                          prev->counts.size() == cur.counts.size();
  if (comparable) {
    bool reset = prev->count > cur.count;
    for (std::size_t i = 0; !reset && i < window.size(); ++i) {
      reset = prev->counts[i] > cur.counts[i];
    }
    if (!reset) {
      for (std::size_t i = 0; i < window.size(); ++i) {
        window[i] -= prev->counts[i];
      }
      count = cur.count - prev->count;
      sum = cur.sum - prev->sum;
    }
  }
  HistogramDelta d;
  d.count = count;
  d.sum = sum;
  d.rate_per_s =
      interval_s > 0.0 ? static_cast<double>(count) / interval_s : 0.0;
  d.mean = count > 0 ? sum / static_cast<double>(count) : 0.0;
  d.p50 = quantile_from_buckets(cur.bounds, window, 0.50);
  d.p90 = quantile_from_buckets(cur.bounds, window, 0.90);
  d.p99 = quantile_from_buckets(cur.bounds, window, 0.99);
  return d;
}

}  // namespace

Snapshot Snapshot::take() {
  Snapshot s;
  s.taken_at_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count();
  Registry& r = Registry::instance();
  r.sample_builtin_gauges();
  for (auto& [name, v] : r.counter_values()) {
    s.counters.emplace(std::move(name), v);
  }
  for (auto& [name, v] : r.gauge_values()) {
    s.gauges.emplace(std::move(name), v);
  }
  for (auto& [name, h] : r.histogram_values()) {
    s.histograms.emplace(std::move(name), std::move(h));
  }
  return s;
}

Snapshot Snapshot::from_json(const json::Value& doc, double now_s) {
  const json::Value* metrics = &doc;
  if (doc.is_object() && doc.contains("metrics")) {
    if (doc.contains("schema")) {
      expects(doc.at("schema").as_string() == "ptrack.metrics.v1",
              "metrics json: schema must be ptrack.metrics.v1");
    }
    metrics = &doc.at("metrics");
  }
  Snapshot s;
  s.taken_at_s = now_s;
  for (const auto& [name, v] : metrics->at("counters").members()) {
    s.counters.emplace(
        name, non_negative_u64(v.as_number(), "metrics json: counter >= 0"));
  }
  for (const auto& [name, v] : metrics->at("gauges").members()) {
    s.gauges.emplace(name, v.as_number());
  }
  for (const auto& [name, v] : metrics->at("histograms").members()) {
    s.histograms.emplace(name, histogram_from_json(v));
  }
  return s;
}

SnapshotDelta delta(const Snapshot& prev, const Snapshot& cur) {
  SnapshotDelta d;
  d.interval_s = cur.taken_at_s - prev.taken_at_s;
  const double interval = d.interval_s > 0.0 ? d.interval_s : 0.0;
  for (const auto& [name, curv] : cur.counters) {
    const auto it = prev.counters.find(name);
    const std::uint64_t prevv = it == prev.counters.end() ? 0 : it->second;
    // Backwards movement means the process restarted (or wrapped — same
    // handling): the whole current value is the window's delta.
    const std::uint64_t dv = curv >= prevv ? curv - prevv : curv;
    d.counter_deltas.emplace(name, dv);
    d.counter_rates.emplace(
        name, interval > 0.0 ? static_cast<double>(dv) / interval : 0.0);
  }
  d.gauges = cur.gauges;
  for (const auto& [name, curh] : cur.histograms) {
    const auto it = prev.histograms.find(name);
    const Histogram::Snapshot* prevh =
        it == prev.histograms.end() ? nullptr : &it->second;
    d.histograms.emplace(name, histogram_delta(prevh, curh, interval));
  }
  return d;
}

double quantile_from_buckets(std::span<const double> bounds,
                             std::span<const std::uint64_t> counts,
                             double q) {
  expects(counts.size() == bounds.size() + 1,
          "quantile_from_buckets: counts = bounds + overflow");
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const double c = static_cast<double>(counts[i]);
    if (c > 0.0 && rank <= cum + c) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double frac = (rank - cum) / c;
      return lo + frac * (bounds[i] - lo);
    }
    cum += c;
  }
  // The rank lives in the overflow bucket: the largest finite bound is the
  // most honest point estimate the bucket layout can give.
  return bounds.back();
}

std::string prom_metric_name(std::string_view name) {
  std::string out(name);
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

std::string prom_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  return out;
}

void write_prometheus(std::ostream& os, const Snapshot& snap) {
  for (const auto& [name, v] : snap.counters) {
    const std::string n = prom_metric_name(name);
    os << "# TYPE " << n << " counter\n" << n << " " << v << "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string n = prom_metric_name(name);
    os << "# TYPE " << n << " gauge\n" << n << " " << format_double(v)
       << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string n = prom_metric_name(name);
    os << "# TYPE " << n << " histogram\n";
    // Cumulative buckets, and _count derived from the same reads: the
    // shard sums for counts[] and count are taken at slightly different
    // instants under live writers, so deriving _count keeps the exposition
    // self-consistent (le="+Inf" == _count always holds).
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cum += h.counts[i];
      os << n << "_bucket{le=\"" << prom_escape_label(format_double(
                                        h.bounds[i]))
         << "\"} " << cum << "\n";
    }
    cum += h.counts.back();
    os << n << "_bucket{le=\"+Inf\"} " << cum << "\n";
    os << n << "_sum " << format_double(h.sum) << "\n";
    os << n << "_count " << cum << "\n";
  }
}

void write_prometheus(std::ostream& os) { write_prometheus(os, Snapshot::take()); }

void write_metrics_document(std::ostream& os) {
  json::Writer w(os);
  w.begin_object();
  w.key("schema").value("ptrack.metrics.v1");
  w.key("metrics");
  Registry::instance().write_json(w);
  w.end_object();
  os << "\n";
}

}  // namespace ptrack::obs
