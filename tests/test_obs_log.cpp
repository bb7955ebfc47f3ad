// Structured-logging tests: record formatting (JSON-lines, escaping,
// value truncation), level gating and --log-level specs, deterministic
// token-bucket suppression, ring overflow accounting (drop, never block)
// and drain-to-sink plumbing.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/log.hpp"

using namespace ptrack;
using obs::log::Level;
using obs::log::kv;

namespace {

/// Empties every ring so a test observes only its own records.
void clear_rings() {
  std::ostringstream sink;
  obs::log::drain(sink);
}

}  // namespace

TEST(ObsLog, LevelNamesRoundTrip) {
  for (const Level lv : {Level::kTrace, Level::kDebug, Level::kInfo,
                         Level::kWarn, Level::kError, Level::kOff}) {
    Level back = Level::kInfo;
    ASSERT_TRUE(obs::log::parse_level(obs::log::to_string(lv), back));
    EXPECT_EQ(back, lv);
  }
  Level out = Level::kInfo;
  EXPECT_FALSE(obs::log::parse_level("verbose", out));
  EXPECT_FALSE(obs::log::parse_level("", out));
}

TEST(ObsLog, SubsystemNameMustBeSnakeCase) {
  EXPECT_THROW(static_cast<void>(obs::log::subsystem("Net")), Error);
  EXPECT_THROW(static_cast<void>(obs::log::subsystem("")), Error);
  EXPECT_THROW(static_cast<void>(obs::log::subsystem("a.b")), Error);
  EXPECT_NO_THROW(static_cast<void>(obs::log::subsystem("testlog_ok_1")));
}

TEST(ObsLog, FormatRecordIsOneJsonLine) {
  obs::log::Record rec;
  rec.wall_unix_s = 1.5;
  rec.subsystem = "testlog";
  rec.event = "hello";
  rec.level = Level::kInfo;
  rec.tid = 7;
  rec.kvs[0] = kv("n", 42);
  rec.kvs[1] = kv("ok", true);
  rec.kvs[2] = kv("who", "a\"b");
  rec.n_kv = 3;
  std::ostringstream os;
  obs::log::format_record(os, rec);
  EXPECT_EQ(os.str(),
            "{\"ts\":1.500000,\"level\":\"info\",\"subsys\":\"testlog\","
            "\"event\":\"hello\",\"tid\":7,\"n\":42,\"ok\":true,"
            "\"who\":\"a\\\"b\"}\n");
  // And it parses back as strict JSON.
  const json::Value v = json::parse(os.str());
  EXPECT_EQ(v.at("event").as_string(), "hello");
  EXPECT_DOUBLE_EQ(v.at("n").as_number(), 42.0);
}

TEST(ObsLog, StringValuesTruncateNeverOverflow) {
  const obs::log::KeyValue p =
      kv("s", "0123456789012345678901234567");  // 28 chars
  std::ostringstream os;
  obs::log::Record rec;
  rec.subsystem = "testlog";
  rec.event = "trunc";
  rec.kvs[0] = p;
  rec.n_kv = 1;
  obs::log::format_record(os, rec);
  EXPECT_NE(os.str().find("\"s\":\"01234567890123456789012\""),
            std::string::npos);  // 23 chars kept + NUL
}

TEST(ObsLog, EmitKeepsFirstSixPairs) {
  clear_rings();
  obs::log::Subsystem& sub = obs::log::subsystem("testlog_kvs");
  sub.emit(Level::kInfo, "many_kvs",
           {kv("a", 1), kv("b", 2), kv("c", 3), kv("d", 4), kv("e", 5),
            kv("f", 6), kv("g", 7), kv("h", 8)});
  std::ostringstream os;
  ASSERT_EQ(obs::log::drain(os), 1u);
  const json::Value v = json::parse(os.str());
  EXPECT_TRUE(v.contains("f"));
  EXPECT_FALSE(v.contains("g"));  // pairs beyond kMaxKvs dropped
  EXPECT_FALSE(v.contains("h"));
}

TEST(ObsLog, LevelGatingBlocksBelowThreshold) {
  obs::log::Subsystem& sub = obs::log::subsystem("testlog_gate");
  sub.set_level(Level::kWarn);
  EXPECT_FALSE(sub.should(Level::kTrace));
  EXPECT_FALSE(sub.should(Level::kDebug));
  EXPECT_FALSE(sub.should(Level::kInfo));
  EXPECT_TRUE(sub.should(Level::kWarn));
  EXPECT_TRUE(sub.should(Level::kError));
  EXPECT_FALSE(sub.should(Level::kOff));  // kOff is never emittable
  sub.set_level(Level::kOff);
  EXPECT_FALSE(sub.should(Level::kError));
}

TEST(ObsLog, ApplyLevelSpec) {
  EXPECT_TRUE(obs::log::apply_level_spec("debug"));
  EXPECT_EQ(obs::log::subsystem("testlog_spec_a").level(), Level::kDebug);

  EXPECT_TRUE(obs::log::apply_level_spec("info,testlog_spec_a=warn"));
  EXPECT_EQ(obs::log::subsystem("testlog_spec_a").level(), Level::kWarn);
  EXPECT_EQ(obs::log::subsystem("testlog_spec_b").level(), Level::kInfo);

  EXPECT_FALSE(obs::log::apply_level_spec(""));
  EXPECT_FALSE(obs::log::apply_level_spec("verbose"));
  EXPECT_FALSE(obs::log::apply_level_spec("net="));
  EXPECT_FALSE(obs::log::apply_level_spec("Net=debug"));
  EXPECT_FALSE(obs::log::apply_level_spec("info,,debug"));

  ASSERT_TRUE(obs::log::apply_level_spec("info"));  // restore for later tests
}

TEST(ObsLog, RateLimitSuppressesDeterministically) {
  obs::log::Subsystem& sub = obs::log::subsystem("testlog_rate");
  sub.set_level(Level::kInfo);
  // Zero refill rate: exactly `burst` records pass, then suppression.
  sub.set_rate_limit(0.0, 2.0);
  EXPECT_TRUE(sub.should(Level::kInfo));
  EXPECT_TRUE(sub.should(Level::kInfo));
  EXPECT_FALSE(sub.should(Level::kInfo));
  EXPECT_FALSE(sub.should(Level::kError));  // limiter is per-subsystem
  // Re-arming the bucket restores emission.
  sub.set_rate_limit(0.0, 1.0);
  EXPECT_TRUE(sub.should(Level::kInfo));
  EXPECT_FALSE(sub.should(Level::kInfo));
}

TEST(ObsLog, RingOverflowDropsAndIsAccounted) {
  clear_rings();
  obs::log::Subsystem& sub = obs::log::subsystem("testlog_ring");
  // 140 emits into a 128-slot ring with no drain in between: 12 drop.
  for (int i = 0; i < 140; ++i) {
    sub.emit(Level::kInfo, "flood", {kv("i", i)});
  }
  std::ostringstream os;
  const std::size_t written = obs::log::drain(os);
  // 128 real records plus the synthetic drop notice.
  EXPECT_EQ(written, 129u);
  EXPECT_NE(os.str().find("\"event\":\"log_records_dropped\""),
            std::string::npos);
  EXPECT_NE(os.str().find("\"dropped\":12"), std::string::npos);
  // Every drained line is valid JSON.
  std::istringstream lines(os.str());
  std::string line;
  std::size_t n_lines = 0;
  while (std::getline(lines, line)) {
    EXPECT_NO_THROW(static_cast<void>(json::parse(line))) << line;
    ++n_lines;
  }
  EXPECT_EQ(n_lines, written);
}

TEST(ObsLog, DrainGoesToConfiguredSink) {
  clear_rings();
  std::ostringstream sink;
  obs::log::set_sink(&sink);
  obs::log::subsystem("testlog_sink").emit(Level::kWarn, "to_sink", {});
  const std::size_t written = obs::log::drain();  // no-arg: uses the sink
  obs::log::set_sink(nullptr);
  EXPECT_EQ(written, 1u);
  EXPECT_NE(sink.str().find("\"event\":\"to_sink\""), std::string::npos);
  EXPECT_NE(sink.str().find("\"level\":\"warn\""), std::string::npos);
}

TEST(ObsLog, MacroEmitsAndRespectsLevel) {
  clear_rings();
  obs::log::set_level("testlog_macro", Level::kInfo);
  PTRACK_LOG_INFO("testlog_macro", "macro_event", kv("x", 1));
  PTRACK_LOG_DEBUG("testlog_macro", "quiet_event", kv("x", 2));
  std::ostringstream os;
  obs::log::drain(os);
  EXPECT_NE(os.str().find("\"event\":\"macro_event\""), std::string::npos);
  EXPECT_EQ(os.str().find("\"event\":\"quiet_event\""), std::string::npos);
}
