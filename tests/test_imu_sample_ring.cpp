// Tests for the SoA sample ring (imu/sample_ring.hpp) and the generic
// absolute-indexed Ring<T> (common/ring.hpp): absolute indexing across
// trims, span contiguity, compaction, and the flag accounting the event
// assembler builds step confidences from.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/ring.hpp"
#include "imu/quality.hpp"
#include "imu/sample_ring.hpp"

using namespace ptrack;

namespace {

imu::Sample sample_at(std::size_t i) {
  imu::Sample s;
  const auto v = static_cast<double>(i);
  s.t = v / 100.0;
  s.accel = {v, v + 0.25, v + 0.5};
  return s;
}

}  // namespace

TEST(SampleRing, AbsoluteIndexingSurvivesTrimming) {
  imu::SampleRing ring;
  for (std::size_t i = 0; i < 100; ++i) {
    ring.push(sample_at(i), static_cast<std::uint8_t>(i % 7));
  }
  EXPECT_EQ(ring.base(), 0u);
  EXPECT_EQ(ring.end(), 100u);
  EXPECT_EQ(ring.size(), 100u);

  ring.trim_to(40);
  EXPECT_EQ(ring.base(), 40u);
  EXPECT_EQ(ring.end(), 100u);  // end() never moves backwards
  EXPECT_EQ(ring.size(), 60u);

  // Absolute addressing is unchanged by the trim.
  const auto az = ring.az(40, 100);
  ASSERT_EQ(az.size(), 60u);
  for (std::size_t i = 0; i < az.size(); ++i) {
    EXPECT_DOUBLE_EQ(az[i], static_cast<double>(40 + i) + 0.5);
  }
  EXPECT_DOUBLE_EQ(ring.ax(77, 78)[0], 77.0);
  EXPECT_DOUBLE_EQ(ring.ay(77, 78)[0], 77.25);
  EXPECT_EQ(ring.flags(77, 78)[0], 77 % 7);
  const auto flags = ring.flags(40, 100);
  for (std::size_t i = 0; i < flags.size(); ++i) {
    EXPECT_EQ(flags[i], static_cast<std::uint8_t>((40 + i) % 7));
  }
}

TEST(SampleRing, TrimClampsAndNeverUntrims) {
  imu::SampleRing ring;
  for (std::size_t i = 0; i < 10; ++i) ring.push(sample_at(i), 0);
  ring.trim_to(6);
  ring.trim_to(2);  // backwards: no-op (clamped to base)
  EXPECT_EQ(ring.base(), 6u);
  ring.trim_to(1000);  // beyond end: clamped to end (empty ring)
  EXPECT_EQ(ring.base(), 10u);
  EXPECT_TRUE(ring.empty());
  // Pushing after a full trim continues the absolute index space.
  ring.push(sample_at(10), 0);
  EXPECT_EQ(ring.base(), 10u);
  EXPECT_EQ(ring.end(), 11u);
  EXPECT_DOUBLE_EQ(ring.ax(10, 11)[0], 10.0);
}

TEST(SampleRing, CompactionPreservesContentAndBoundsMemory) {
  imu::SampleRing ring;
  // Streaming pattern: push a hop, trim the consumed prefix, repeat. The
  // dead prefix must get compacted away (not accumulate forever).
  std::size_t pushed = 0;
  for (std::size_t hop = 0; hop < 50; ++hop) {
    for (std::size_t i = 0; i < 200; ++i) ring.push(sample_at(pushed++), 0);
    if (ring.end() > 600) ring.trim_to(ring.end() - 600);
  }
  EXPECT_GT(ring.compactions(), 0u);
  EXPECT_EQ(ring.size(), 600u);
  EXPECT_EQ(ring.end(), pushed);
  // Content survives every compaction slide.
  const auto ax = ring.ax(ring.base(), ring.end());
  for (std::size_t i = 0; i < ax.size(); ++i) {
    EXPECT_DOUBLE_EQ(ax[i], static_cast<double>(ring.base() + i));
  }
}

TEST(SampleRing, FlagAccountingMatchesQualityReportArithmetic) {
  imu::SampleRing ring;
  for (std::size_t i = 0; i < 50; ++i) {
    std::uint8_t flags = 0;
    if (i >= 10 && i < 20) flags = imu::kFlagDropout | imu::kFlagRepaired;
    if (i >= 30 && i < 34) flags = imu::kFlagMasked;
    ring.push(sample_at(i), flags);
  }
  EXPECT_EQ(ring.count_flagged(0, 50, 0xFF), 14u);
  EXPECT_EQ(ring.count_flagged(0, 50, imu::kFlagMasked), 4u);
  EXPECT_DOUBLE_EQ(ring.fraction_flagged(0, 50, 0xFF), 14.0 / 50.0);
  EXPECT_DOUBLE_EQ(ring.fraction_flagged(30, 34, imu::kFlagMasked), 1.0);
  // Empty interval yields 0.
  EXPECT_DOUBLE_EQ(ring.fraction_flagged(25, 25, 0xFF), 0.0);
  const auto f = ring.flags(10, 20);
  for (const std::uint8_t b : f) EXPECT_EQ(b, imu::kFlagDropout | imu::kFlagRepaired);
}

TEST(SampleRing, OutOfRangeSpanViolatesContract) {
  imu::SampleRing ring;
  for (std::size_t i = 0; i < 10; ++i) ring.push(sample_at(i), 0);
  ring.trim_to(5);
  EXPECT_THROW((void)ring.ax(8, 7), InvalidArgument);  // inverted
  if constexpr (checks_enabled()) {
    EXPECT_THROW((void)ring.ax(0, 10), InvariantViolation);  // below base
    EXPECT_THROW((void)ring.ax(5, 11), InvariantViolation);  // beyond end
  }
}

TEST(GenericRing, AbsoluteIndexingTrimAndMutation) {
  Ring<double> ring;
  for (std::size_t i = 0; i < 64; ++i) ring.push(static_cast<double>(i));
  EXPECT_EQ(ring.base(), 0u);
  EXPECT_EQ(ring.end(), 64u);
  EXPECT_DOUBLE_EQ(ring[63], 63.0);

  ring.trim_to(32);
  EXPECT_EQ(ring.base(), 32u);
  EXPECT_DOUBLE_EQ(ring[40], 40.0);
  const auto span = ring.span(32, 64);
  ASSERT_EQ(span.size(), 32u);
  EXPECT_DOUBLE_EQ(span.front(), 32.0);

  // at() mutation by absolute index (the stride backfill path).
  ring.at(40) = -1.0;
  EXPECT_DOUBLE_EQ(ring[40], -1.0);
}

TEST(GenericRing, CompactionKeepsValues) {
  Ring<int> ring;
  std::size_t pushed = 0;
  for (std::size_t round = 0; round < 40; ++round) {
    for (int i = 0; i < 100; ++i) ring.push(static_cast<int>(pushed++));
    if (ring.end() > 150) ring.trim_to(ring.end() - 150);
  }
  EXPECT_EQ(ring.size(), 150u);
  for (std::size_t i = ring.base(); i < ring.end(); ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i));
  }
}

TEST(GenericRing, SpanContractAndEmpty) {
  Ring<double> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.span(0, 0).size(), 0u);
  if constexpr (checks_enabled()) {
    ring.push(1.0);
    EXPECT_THROW((void)ring.span(0, 2), InvariantViolation);
  }
}
