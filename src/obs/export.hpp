// Exposition layer over the metrics registry: point-in-time Snapshots,
// deltas between two snapshots (rates + windowed histogram percentiles —
// what a poller wants instead of lifetime totals), and renderers for the
// two wire formats every consumer speaks:
//
//   * Prometheus text exposition (`/metrics`, obs_check --prom): metric
//     names mangle `.` to `_`, histograms emit cumulative `_bucket` series
//     with an explicit `le` label per exported bound plus `+Inf`, `_sum`
//     and `_count`.
//   * The repo's own JSON document (`--metrics-out`, `/metrics.json`):
//     {"schema":"ptrack.metrics.v1","metrics":{...}} —
//     bucket boundaries are explicit in both formats, never implicit.
//
// Snapshot::from_json parses that JSON document back, so ptrack_top and
// tests reuse the exact same delta/percentile code against a remote
// process that the in-process exporters use locally.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace ptrack::obs {

/// Point-in-time copy of every registered metric. Plain data: tests build
/// them by hand to exercise delta edge cases (counter wraps, vanished
/// metrics) without touching the process registry.
struct Snapshot {
  /// Monotonic capture time in seconds (steady clock for take(); the
  /// caller's clock for from_json). Only differences are meaningful.
  double taken_at_s = 0.0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;

  /// Captures the process registry (samples the builtin gauges first).
  [[nodiscard]] static Snapshot take();

  /// Rebuilds a Snapshot from a ptrack.metrics.v1 document (either the
  /// whole document or just its "metrics" object). `taken_at_s` is set to
  /// `now_s` — the poller's own clock. Throws ptrack::InvalidArgument on
  /// schema violations.
  [[nodiscard]] static Snapshot from_json(const json::Value& doc,
                                          double now_s);
};

/// Windowed view of one histogram between two snapshots.
struct HistogramDelta {
  std::uint64_t count = 0;   ///< observations in the window
  double sum = 0.0;
  double rate_per_s = 0.0;   ///< count / interval
  double mean = 0.0;         ///< sum / count (0 when empty)
  double p50 = 0.0;          ///< interpolated from windowed bucket counts
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Rates between two snapshots of the same process. A counter that moved
/// backwards (process restart; 64-bit wrap is indistinguishable and
/// equally rare) is treated as reset: the delta is the current value, not
/// a huge unsigned difference.
struct SnapshotDelta {
  double interval_s = 0.0;
  std::map<std::string, std::uint64_t> counter_deltas;
  std::map<std::string, double> counter_rates;  ///< delta / interval
  std::map<std::string, double> gauges;         ///< current values
  std::map<std::string, HistogramDelta> histograms;
};

/// Computes cur - prev. Metrics absent from `prev` (registered mid-window)
/// are treated as starting from zero; metrics absent from `cur` are
/// dropped. interval_s <= 0 yields zero rates but still reports deltas.
[[nodiscard]] SnapshotDelta delta(const Snapshot& prev, const Snapshot& cur);

/// Quantile (q in [0,1]) from per-bucket (non-cumulative) counts:
/// counts.size() == bounds.size() + 1, last entry the overflow bucket.
/// Linear interpolation inside the owning bucket, assuming a non-negative
/// domain (bucket 0 spans [0, bounds[0]]); a rank landing in the overflow
/// bucket reports the largest finite bound. Returns 0 for an empty
/// histogram.
[[nodiscard]] double quantile_from_buckets(std::span<const double> bounds,
                                           std::span<const std::uint64_t> counts,
                                           double q);

/// `ptrack.net.bytes.in` -> `ptrack_net_bytes_in` (Prometheus name charset).
[[nodiscard]] std::string prom_metric_name(std::string_view name);

/// Escapes a Prometheus label value: backslash, double-quote and newline.
[[nodiscard]] std::string prom_escape_label(std::string_view value);

/// Renders a snapshot as Prometheus text exposition (version 0.0.4):
/// `# TYPE` comments, counters/gauges as single samples, histograms as
/// cumulative `_bucket{le="..."}` series ending in `+Inf` plus `_sum` and
/// `_count`.
void write_prometheus(std::ostream& os, const Snapshot& snap);

/// Convenience: take() + render.
void write_prometheus(std::ostream& os);

/// Writes the canonical ptrack.metrics.v1 JSON document — the one format
/// shared by `--metrics-out`, `/metrics.json` and the SIGUSR1 dump, and
/// the input contract of `obs_check --metrics`.
void write_metrics_document(std::ostream& os);

}  // namespace ptrack::obs
