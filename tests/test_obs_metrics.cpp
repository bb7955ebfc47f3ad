// Tests for the observability metrics registry: counter/gauge/histogram
// semantics, the naming scheme, JSON snapshot shape (validated by parsing
// it back with common/json), the runtime kill switch, and — most
// importantly — the concurrency contract: many writer threads hammering
// sharded cells while a scraper aggregates. The hammer test is the one the
// TSan CI job exists for.
//
// The registry is a process-wide singleton shared by every test in this
// binary (and by the pipeline code some tests run), so each test uses its
// own `ptrack.test.*` metric names and asserts deltas, not absolutes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"

using namespace ptrack;

namespace {

/// Scrapes the registry into a parsed JSON document.
json::Value snapshot() {
  std::ostringstream os;
  json::Writer w(os);
  obs::Registry::instance().write_json(w);
  return json::parse(os.str());
}

}  // namespace

TEST(ObsMetrics, CounterAccumulates) {
  auto& c = obs::Registry::instance().counter("ptrack.test.counter_basic");
  const std::uint64_t before = c.value();
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), before + 42);
  // Same name returns the same handle.
  auto& again = obs::Registry::instance().counter("ptrack.test.counter_basic");
  EXPECT_EQ(&again, &c);
}

TEST(ObsMetrics, GaugeIsLastWriteWins) {
  auto& g = obs::Registry::instance().gauge("ptrack.test.gauge_basic");
  g.set(0.25);
  g.set(0.75);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);
}

TEST(ObsMetrics, HistogramBucketsObservations) {
  const double bounds[] = {10.0, 100.0, 1000.0};
  auto& h = obs::Registry::instance().histogram("ptrack.test.hist_basic",
                                                bounds);
  h.observe(5.0);     // bucket 0 (<= 10)
  h.observe(10.0);    // bucket 0 (boundary is inclusive)
  h.observe(50.0);    // bucket 1
  h.observe(5000.0);  // overflow
  const auto s = h.snapshot();
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 0u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 5065.0);
}

TEST(ObsMetrics, HistogramReboundsThrow) {
  const double bounds[] = {1.0, 2.0};
  obs::Registry::instance().histogram("ptrack.test.hist_rebound", bounds);
  const double other[] = {1.0, 3.0};
  EXPECT_THROW(obs::Registry::instance().histogram("ptrack.test.hist_rebound",
                                                   other),
               InvalidArgument);
  // Identical bounds are fine (same call site pattern after reset()).
  EXPECT_NO_THROW(obs::Registry::instance().histogram(
      "ptrack.test.hist_rebound", bounds));
}

TEST(ObsMetrics, NameSchemeIsEnforced) {
  auto& reg = obs::Registry::instance();
  EXPECT_THROW(reg.counter(""), InvalidArgument);
  EXPECT_THROW(reg.counter("bad"), InvalidArgument);
  EXPECT_THROW(reg.counter("ptrack.x"), InvalidArgument);       // 2 segments
  EXPECT_THROW(reg.counter("other.layer.name"), InvalidArgument);
  EXPECT_THROW(reg.counter("ptrack.Test.upper"), InvalidArgument);
  EXPECT_THROW(reg.counter("ptrack..empty_seg"), InvalidArgument);
  EXPECT_THROW(reg.counter("ptrack.test.trailing."), InvalidArgument);
  EXPECT_THROW(reg.gauge("ptrack.test.sp ace"), InvalidArgument);
  EXPECT_NO_THROW(reg.counter("ptrack.test.ok_name_1"));
  EXPECT_NO_THROW(reg.counter("ptrack.test.deep.ok"));
}

TEST(ObsMetrics, SnapshotJsonParsesAndMatchesValues) {
  auto& reg = obs::Registry::instance();
  auto& c = reg.counter("ptrack.test.snap_counter");
  const double base = static_cast<double>(c.value());
  c.inc(7);
  reg.gauge("ptrack.test.snap_gauge").set(1.5);
  const double bounds[] = {10.0};
  auto& h = reg.histogram("ptrack.test.snap_hist", bounds);
  h.observe(3.0);
  h.observe(30.0);

  const json::Value v = snapshot();
  EXPECT_DOUBLE_EQ(
      v.at("counters").at("ptrack.test.snap_counter").as_number(), base + 7);
  EXPECT_DOUBLE_EQ(v.at("gauges").at("ptrack.test.snap_gauge").as_number(),
                   1.5);
  const json::Value& hist = v.at("histograms").at("ptrack.test.snap_hist");
  EXPECT_GE(hist.at("count").as_number(), 2.0);
  EXPECT_GE(hist.at("overflow").as_number(), 1.0);
  const auto& buckets = hist.at("buckets").items();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_DOUBLE_EQ(buckets[0].at("le").as_number(), 10.0);
  EXPECT_GE(buckets[0].at("count").as_number(), 1.0);
}

TEST(ObsMetrics, MacrosRespectRuntimeKillSwitch) {
  auto& c = obs::Registry::instance().counter("ptrack.test.kill_switch");
  const std::uint64_t before = c.value();

  obs::set_enabled(false);
  PTRACK_COUNT("ptrack.test.kill_switch");
  EXPECT_EQ(c.value(), before);  // no-op while disabled

  obs::set_enabled(true);
  PTRACK_COUNT("ptrack.test.kill_switch");
  PTRACK_COUNT_N("ptrack.test.kill_switch", 4);
  EXPECT_EQ(c.value(), before + 5);
}

TEST(ObsMetrics, ResetZeroesEverything) {
  auto& reg = obs::Registry::instance();
  auto& c = reg.counter("ptrack.test.reset_counter");
  c.inc(9);
  const double bounds[] = {1.0};
  auto& h = reg.histogram("ptrack.test.reset_hist", bounds);
  h.observe(0.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_DOUBLE_EQ(h.snapshot().sum, 0.0);
}

// The TSan target: writers on every shard plus a concurrent scraper. The
// assertions are deliberately weak while threads run (monotone growth,
// bucket-sum consistency is only checked after the join) — the point is
// that the interleaving itself is clean under the sanitizer.
TEST(ObsMetrics, ConcurrentHammerWithScraper) {
  auto& reg = obs::Registry::instance();
  auto& c = reg.counter("ptrack.test.hammer_counter");
  const double bounds[] = {10.0, 100.0};
  auto& h = reg.histogram("ptrack.test.hammer_hist", bounds);
  auto& g = reg.gauge("ptrack.test.hammer_gauge");
  const std::uint64_t c_before = c.value();
  const std::uint64_t h_before = h.snapshot().count;

  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kIters = 20000;
  std::atomic<bool> stop{false};

  std::thread scraper([&] {
    std::uint64_t last = c_before;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t now = c.value();
      EXPECT_GE(now, last);  // monotone even mid-flight
      last = now;
      std::ostringstream os;
      json::Writer w(os);
      reg.write_json(w);  // full scrape concurrent with writers
    }
  });

  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(static_cast<double>((i + t) % 200));
        if (i % 1024 == 0) g.set(static_cast<double>(t));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  // Writers joined: sums are exact now.
  EXPECT_EQ(c.value(), c_before + kThreads * kIters);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, h_before + kThreads * kIters);
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t n : s.counts) bucket_sum += n;
  EXPECT_EQ(bucket_sum, s.count);
}
