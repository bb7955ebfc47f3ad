// Exposition-layer tests: Prometheus rendering (name mangling, label
// escaping, cumulative buckets, live-scrape self-consistency), the JSON
// metrics document, Snapshot::from_json and the delta()/quantile edge
// cases (counter wraps, vanished metrics, changed bucket layouts) that a
// long-polling ptrack_top must survive.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

using namespace ptrack;

namespace {

obs::Histogram::Snapshot make_hist(std::vector<double> bounds,
                                   std::vector<std::uint64_t> counts,
                                   double sum) {
  obs::Histogram::Snapshot h;
  h.bounds = std::move(bounds);
  h.counts = std::move(counts);
  h.sum = sum;
  h.count = 0;
  for (const std::uint64_t c : h.counts) h.count += c;
  return h;
}

}  // namespace

TEST(ObsExport, PromMetricNameManglesDots) {
  EXPECT_EQ(obs::prom_metric_name("ptrack.net.bytes.in"),
            "ptrack_net_bytes_in");
  EXPECT_EQ(obs::prom_metric_name("already_flat"), "already_flat");
}

TEST(ObsExport, PromEscapeLabel) {
  EXPECT_EQ(obs::prom_escape_label("plain"), "plain");
  EXPECT_EQ(obs::prom_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::prom_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prom_escape_label("a\nb"), "a\\nb");
}

TEST(ObsExport, EmptySnapshotRendersNothing) {
  obs::Snapshot snap;
  std::ostringstream os;
  obs::write_prometheus(os, snap);
  EXPECT_TRUE(os.str().empty());
}

TEST(ObsExport, PrometheusCountersAndGauges) {
  obs::Snapshot snap;
  snap.counters["ptrack.test.export.hits"] = 42;
  snap.gauges["ptrack.test.export.level"] = 2.5;
  std::ostringstream os;
  obs::write_prometheus(os, snap);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE ptrack_test_export_hits counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("ptrack_test_export_hits 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ptrack_test_export_level gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("ptrack_test_export_level 2.5\n"), std::string::npos);
}

TEST(ObsExport, PrometheusHistogramCumulativeAndSelfConsistent) {
  obs::Snapshot snap;
  // Per-bucket counts 3,2,0 plus overflow 1 -> cumulative 3,5,5, +Inf 6.
  snap.histograms["ptrack.test.export.lat_us"] =
      make_hist({10.0, 100.0, 1000.0}, {3, 2, 0, 1}, 512.0);
  std::ostringstream os;
  obs::write_prometheus(os, snap);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE ptrack_test_export_lat_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("ptrack_test_export_lat_us_bucket{le=\"10\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ptrack_test_export_lat_us_bucket{le=\"100\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("ptrack_test_export_lat_us_bucket{le=\"1000\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("ptrack_test_export_lat_us_bucket{le=\"+Inf\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("ptrack_test_export_lat_us_sum 512\n"),
            std::string::npos);
  // _count is derived from the buckets, so it always equals +Inf — the
  // invariant a live scrape must keep even while writers race.
  EXPECT_NE(text.find("ptrack_test_export_lat_us_count 6\n"),
            std::string::npos);
}

TEST(ObsExport, DeltaRatesAndWindowedPercentiles) {
  obs::Snapshot prev, cur;
  prev.taken_at_s = 10.0;
  cur.taken_at_s = 12.0;
  prev.counters["ptrack.test.export.c"] = 100;
  cur.counters["ptrack.test.export.c"] = 150;
  cur.gauges["ptrack.test.export.g"] = 7.0;
  prev.histograms["ptrack.test.export.h"] =
      make_hist({10.0, 100.0}, {10, 0, 0}, 50.0);
  cur.histograms["ptrack.test.export.h"] =
      make_hist({10.0, 100.0}, {10, 100, 0}, 5050.0);

  const obs::SnapshotDelta d = obs::delta(prev, cur);
  EXPECT_DOUBLE_EQ(d.interval_s, 2.0);
  EXPECT_EQ(d.counter_deltas.at("ptrack.test.export.c"), 50u);
  EXPECT_DOUBLE_EQ(d.counter_rates.at("ptrack.test.export.c"), 25.0);
  EXPECT_DOUBLE_EQ(d.gauges.at("ptrack.test.export.g"), 7.0);
  const obs::HistogramDelta& h = d.histograms.at("ptrack.test.export.h");
  EXPECT_EQ(h.count, 100u);  // only the window, not lifetime
  EXPECT_DOUBLE_EQ(h.sum, 5000.0);
  EXPECT_DOUBLE_EQ(h.rate_per_s, 50.0);
  EXPECT_DOUBLE_EQ(h.mean, 50.0);
  // All windowed observations sit in (10, 100]: every percentile does too.
  EXPECT_GT(h.p50, 10.0);
  EXPECT_LE(h.p99, 100.0);
}

TEST(ObsExport, DeltaTreatsCounterWrapAsReset) {
  obs::Snapshot prev, cur;
  prev.taken_at_s = 0.0;
  cur.taken_at_s = 1.0;
  prev.counters["ptrack.test.export.w"] = 1'000'000;
  cur.counters["ptrack.test.export.w"] = 40;  // restarted process
  const obs::SnapshotDelta d = obs::delta(prev, cur);
  EXPECT_EQ(d.counter_deltas.at("ptrack.test.export.w"), 40u);
}

TEST(ObsExport, DeltaHandlesAppearingAndVanishingMetrics) {
  obs::Snapshot prev, cur;
  prev.taken_at_s = 0.0;
  cur.taken_at_s = 1.0;
  prev.counters["ptrack.test.export.gone"] = 5;
  cur.counters["ptrack.test.export.fresh"] = 9;  // registered mid-window
  const obs::SnapshotDelta d = obs::delta(prev, cur);
  EXPECT_EQ(d.counter_deltas.count("ptrack.test.export.gone"), 0u);
  EXPECT_EQ(d.counter_deltas.at("ptrack.test.export.fresh"), 9u);
}

TEST(ObsExport, DeltaFallsBackWhenBucketLayoutChanges) {
  obs::Snapshot prev, cur;
  prev.taken_at_s = 0.0;
  cur.taken_at_s = 1.0;
  prev.histograms["ptrack.test.export.h"] =
      make_hist({10.0}, {4, 0}, 8.0);
  cur.histograms["ptrack.test.export.h"] =
      make_hist({10.0, 100.0}, {6, 1, 0}, 20.0);  // different bounds
  const obs::SnapshotDelta d = obs::delta(prev, cur);
  // Incomparable layouts: the window degrades to the current lifetime.
  EXPECT_EQ(d.histograms.at("ptrack.test.export.h").count, 7u);
}

TEST(ObsExport, QuantileFromBuckets) {
  const std::vector<double> bounds = {10.0, 100.0, 1000.0};
  // 50 in [0,10], 30 in (10,100], 20 in (100,1000], none overflow.
  const std::vector<std::uint64_t> counts = {50, 30, 20, 0};
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets(bounds, counts, 0.0), 0.0);
  const double p50 = obs::quantile_from_buckets(bounds, counts, 0.5);
  EXPECT_GE(p50, 9.0);
  EXPECT_LE(p50, 10.0);
  const double p99 = obs::quantile_from_buckets(bounds, counts, 0.99);
  EXPECT_GT(p99, 100.0);
  EXPECT_LE(p99, 1000.0);
  // Empty histogram: 0, never NaN.
  EXPECT_DOUBLE_EQ(
      obs::quantile_from_buckets(bounds, {{0, 0, 0, 0}}, 0.5), 0.0);
  // Rank in the overflow bucket clamps to the largest finite bound.
  EXPECT_DOUBLE_EQ(
      obs::quantile_from_buckets(bounds, {{0, 0, 0, 10}}, 0.99), 1000.0);
}

TEST(ObsExport, FromJsonRoundTrip) {
  const std::string doc_text =
      "{\"schema\":\"ptrack.metrics.v1\","
      "\"metrics\":{"
      "\"counters\":{\"ptrack.test.export.c\":17},"
      "\"gauges\":{\"ptrack.test.export.g\":2.25},"
      "\"histograms\":{\"ptrack.test.export.h\":{"
      "\"count\":3,\"sum\":42.0,"
      "\"buckets\":[{\"le\":10.0,\"count\":2},{\"le\":100.0,\"count\":1}],"
      "\"overflow\":0}}}}";
  const obs::Snapshot snap =
      obs::Snapshot::from_json(json::parse(doc_text), 5.0);
  EXPECT_DOUBLE_EQ(snap.taken_at_s, 5.0);
  EXPECT_EQ(snap.counters.at("ptrack.test.export.c"), 17u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("ptrack.test.export.g"), 2.25);
  const obs::Histogram::Snapshot& h =
      snap.histograms.at("ptrack.test.export.h");
  ASSERT_EQ(h.bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(h.bounds[0], 10.0);
  ASSERT_EQ(h.counts.size(), 3u);  // two buckets + overflow
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[2], 0u);
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 42.0);
}

TEST(ObsExport, FromJsonRejectsBadSchemaAndBadBounds) {
  EXPECT_THROW(
      static_cast<void>(obs::Snapshot::from_json(
          json::parse("{\"schema\":\"something.else\",\"metrics\":{"
                      "\"counters\":{},\"gauges\":{},\"histograms\":{}}}"),
          0.0)),
      Error);
  // Non-ascending bucket bounds must be rejected, not silently accepted.
  EXPECT_THROW(
      static_cast<void>(obs::Snapshot::from_json(
          json::parse(
              "{\"counters\":{},\"gauges\":{},\"histograms\":{"
              "\"ptrack.test.export.h\":{\"count\":0,\"sum\":0,"
              "\"buckets\":[{\"le\":100.0,\"count\":0},"
              "{\"le\":10.0,\"count\":0}],\"overflow\":0}}}"),
          0.0)),
      Error);
}

TEST(ObsExport, LiveDocumentRoundTripsThroughFromJson) {
  PTRACK_COUNT_N("ptrack.test.export.live", 3);
  PTRACK_HIST_US("ptrack.test.export.live_us", 250.0);
  std::ostringstream os;
  obs::write_metrics_document(os);
  const json::Value doc = json::parse(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), "ptrack.metrics.v1");
  const obs::Snapshot snap = obs::Snapshot::from_json(doc, 1.0);
  EXPECT_GE(snap.counters.at("ptrack.test.export.live"), 3u);
  const obs::Histogram::Snapshot& h =
      snap.histograms.at("ptrack.test.export.live_us");
  EXPECT_GE(h.count, 1u);
  EXPECT_EQ(h.bounds.size(), obs::latency_buckets_us().size());
  // The exported boundaries are the registry's own, in order.
  for (std::size_t i = 0; i < h.bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(h.bounds[i], obs::latency_buckets_us()[i]);
  }
}

TEST(ObsExport, TakeMatchesRegistry) {
  PTRACK_COUNT("ptrack.test.export.take");
  const obs::Snapshot snap = obs::Snapshot::take();
  EXPECT_GE(snap.counters.at("ptrack.test.export.take"), 1u);
  EXPECT_GT(snap.taken_at_s, 0.0);
}
