// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms for attributing work and latency to pipeline stages.
//
// Hot-path design: every counter and histogram is sharded into kShards
// cache-line-aligned cells; a thread increments the cell picked by its
// (stable) thread slot with one relaxed atomic add — no locks, no
// contention in the common case, and scrapes pay the aggregation cost
// instead of the writers. The registry mutex is only taken at metric
// registration (once per call site, via the macros' function-local static
// handles) and on scrape.
//
// Naming scheme: `ptrack.<layer>.<name>` with layer one of the source
// subdirectories (dsp, imu, core, runtime, ...). The registry enforces the
// prefix so dashboards can rely on it (see DESIGN.md "Observability").
//
// Runtime switch: obs::set_enabled(false) short-circuits the macros before
// any registry access (bench/obs_overhead times instrumentation on against
// off with it).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

// Always 1: telemetry is always compiled in. Kept only because the
// end-to-end benchmark (e2e_bench/src/main.cpp) reads it.
#define PTRACK_OBS_ENABLED 1

namespace ptrack::obs {

namespace detail {
/// Stable small slot for the calling thread (assigned on first use).
std::size_t this_thread_slot();
inline std::atomic<bool> g_enabled{true};
}  // namespace detail

/// Runtime kill switch (default on). Checked by every instrumentation
/// macro before touching the registry; one relaxed load.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Shard count per metric. More shards than typical worker counts would
/// waste cache; fewer would contend. Threads map to shards slot % kShards.
inline constexpr std::size_t kShards = 16;

/// Monotone event counter. inc() is one relaxed atomic add on the calling
/// thread's shard; value() sums the shards (approximate while writers are
/// active, exact once they are quiescent or joined).
class Counter {
 public:
  void inc(std::uint64_t delta = 1);
  [[nodiscard]] std::uint64_t value() const;
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::string name_;
  std::array<Cell, kShards> cells_{};
};

/// Last-write-wins instantaneous value (e.g. worker utilization). Set is
/// rare (per batch, not per sample), so a single relaxed atomic suffices.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram (cumulative-style buckets: counts[i] covers
/// values <= bounds[i], plus one overflow bucket). Sharded like Counter.
class Histogram {
 public:
  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;        ///< ascending upper bounds
    std::vector<std::uint64_t> counts; ///< bounds.size() + 1 (last: overflow)
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::span<const double> bounds);

  struct alignas(64) SumCell {
    std::atomic<double> sum{0.0};
    std::atomic<std::uint64_t> count{0};
  };
  std::string name_;
  std::vector<double> bounds_;
  /// Shard-major layout: shard * (bounds_.size() + 1) + bucket.
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::array<SumCell, kShards> sums_{};
};

/// Exponential microsecond buckets covering 10 µs .. 1 s — the default for
/// stage latency histograms.
std::span<const double> latency_buckets_us();

/// Process-wide registry. Handles returned by counter()/gauge()/histogram()
/// are stable for the process lifetime; cache them (the instrumentation
/// macros do, in function-local statics).
class Registry {
 public:
  static Registry& instance();

  /// Registers (or finds) a metric. Names must match
  /// `ptrack.<layer>.<name>`; re-registering a histogram with different
  /// bounds throws.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  /// Serializes one snapshot as a JSON object value:
  /// {"counters":{name:n,...},"gauges":{...},"histograms":{name:
  ///  {"count":n,"sum":s,"buckets":[{"le":b,"count":n},...],
  ///   "overflow":n},...}}. Names are emitted sorted (deterministic).
  /// Non-const: scrape time is when the live-allocation gauges
  /// (`ptrack.common.alloc.live_{allocations,bytes}`) are sampled from the
  /// alloc hooks into the registry.
  void write_json(json::Writer& w);

  /// Enumerates registered metrics under the registry lock — the export
  /// layer (obs/export.hpp) builds Snapshots from these. Values are read
  /// with the same relaxed semantics as write_json (approximate while
  /// writers are active).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_values() const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauge_values()
      const;
  [[nodiscard]] std::vector<std::pair<std::string, Histogram::Snapshot>>
  histogram_values() const;

  /// Samples process-level state (the live-allocation gauges
  /// `ptrack.common.alloc.live_{allocations,bytes}`) into the registry.
  /// Every exporter calls this before reading so scrapes agree on what a
  /// snapshot contains.
  void sample_builtin_gauges();

  /// Zeroes every registered metric (tests and benches; not thread-safe
  /// against concurrent writers beyond the per-cell atomicity).
  void reset();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace ptrack::obs

#define PTRACK_OBS_CAT2_(a, b) a##b
#define PTRACK_OBS_CAT_(a, b) PTRACK_OBS_CAT2_(a, b)

/// Adds `n_` to the counter `name_` (string literal). The handle is looked
/// up once per call site; afterwards the cost is one branch plus one
/// relaxed atomic add.
#define PTRACK_COUNT_N(name_, n_)                                           \
  do {                                                                      \
    if (::ptrack::obs::enabled()) {                                         \
      static ::ptrack::obs::Counter& PTRACK_OBS_CAT_(ptrack_obs_c_,         \
                                                     __LINE__) =            \
          ::ptrack::obs::Registry::instance().counter(name_);               \
      PTRACK_OBS_CAT_(ptrack_obs_c_, __LINE__)                              \
          .inc(static_cast<std::uint64_t>(n_));                             \
    }                                                                       \
  } while (0)

/// Records `v_` (µs) into the latency histogram `name_`.
#define PTRACK_HIST_US(name_, v_)                                           \
  do {                                                                      \
    if (::ptrack::obs::enabled()) {                                         \
      static ::ptrack::obs::Histogram& PTRACK_OBS_CAT_(ptrack_obs_h_,       \
                                                       __LINE__) =          \
          ::ptrack::obs::Registry::instance().histogram(                    \
              name_, ::ptrack::obs::latency_buckets_us());                  \
      PTRACK_OBS_CAT_(ptrack_obs_h_, __LINE__)                              \
          .observe(static_cast<double>(v_));                                \
    }                                                                       \
  } while (0)

#define PTRACK_COUNT(name_) PTRACK_COUNT_N(name_, 1)
