// Unit tests for the PTrack stride estimator on synthesized gait.

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "common/error.hpp"
#include "core/stages.hpp"
#include "core/ptrack.hpp"
#include "core/stride_estimator.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

struct StrideFixture {
  synth::UserProfile user;
  synth::SynthResult result;
  core::ProjectedChannels projected;
  core::TrackResult counted;
};

StrideFixture make(synth::ActivityKind kind, std::uint64_t seed) {
  StrideFixture s;
  Rng rng(seed);
  synth::Scenario scenario = kind == synth::ActivityKind::Walking
                                 ? synth::Scenario::pure_walking(40.0)
                                 : synth::Scenario::pure_stepping(40.0);
  s.result = synth::synthesize(scenario, s.user, synth::SynthOptions{}, rng);
  s.projected = core::project_trace(s.result.trace);
  core::PTrackConfig raw;
  raw.quality.enabled = false;
  s.counted = core::PTrack(raw).process(s.result.trace);
  return s;
}

core::StrideEstimator estimator_for(const synth::UserProfile& user) {
  core::StrideConfig cfg;
  cfg.profile = {user.arm_length, user.leg_length, 2.0};
  return core::StrideEstimator(cfg);
}

}  // namespace

TEST(StrideEstimator, WalkingCyclesYieldEstimates) {
  const StrideFixture s = make(synth::ActivityKind::Walking, 61);
  const core::StrideEstimator est = estimator_for(s.user);
  std::size_t produced = 0;
  for (const core::CycleRecord& c : s.counted.cycles) {
    if (c.type != core::GaitType::Walking) continue;
    produced += est.estimate_cycle(s.projected, c).size();
  }
  EXPECT_GT(produced, 20u);
}

TEST(StrideEstimator, WalkingBounceNearTruth) {
  const StrideFixture s = make(synth::ActivityKind::Walking, 62);
  const core::StrideEstimator est = estimator_for(s.user);
  std::vector<double> bounces;
  for (const core::CycleRecord& c : s.counted.cycles) {
    if (c.type != core::GaitType::Walking) continue;
    for (const core::SweepEstimate& e : est.estimate_cycle(s.projected, c)) {
      if (e.valid) bounces.push_back(e.bounce);
    }
  }
  ASSERT_GT(bounces.size(), 10u);
  const double truth = s.user.bounce_for_stride(s.user.mean_stride());
  EXPECT_NEAR(stats::median(bounces), truth, 0.35 * truth);
}

TEST(StrideEstimator, SteppingDirectBounceNearTruth) {
  const StrideFixture s = make(synth::ActivityKind::Stepping, 63);
  const core::StrideEstimator est = estimator_for(s.user);
  std::vector<double> bounces;
  for (const core::CycleRecord& c : s.counted.cycles) {
    if (c.type != core::GaitType::Stepping) continue;
    for (const core::SweepEstimate& e : est.estimate_cycle(s.projected, c)) {
      if (e.valid) bounces.push_back(e.bounce);
    }
  }
  ASSERT_GT(bounces.size(), 10u);
  const double truth = s.user.bounce_for_stride(s.user.mean_stride());
  EXPECT_NEAR(stats::median(bounces), truth, 0.2 * truth);
}

TEST(StrideEstimator, SteppingStrideNearTruth) {
  const StrideFixture s = make(synth::ActivityKind::Stepping, 64);
  const core::StrideEstimator est = estimator_for(s.user);
  std::vector<double> strides;
  for (const core::CycleRecord& c : s.counted.cycles) {
    if (c.type == core::GaitType::Interference) continue;
    for (const core::SweepEstimate& e : est.estimate_cycle(s.projected, c)) {
      if (e.valid) strides.push_back(e.stride);
    }
  }
  ASSERT_GT(strides.size(), 10u);
  EXPECT_NEAR(stats::median(strides), s.user.mean_stride(),
              0.2 * s.user.mean_stride());
}

TEST(StrideEstimator, InterferenceCyclesYieldNothing) {
  const StrideFixture s = make(synth::ActivityKind::Walking, 65);
  const core::StrideEstimator est = estimator_for(s.user);
  core::CycleRecord fake;
  fake.begin = 0;
  fake.mid = 50;
  fake.end = 100;
  fake.type = core::GaitType::Interference;
  EXPECT_TRUE(est.estimate_cycle(s.projected, fake).empty());
}

TEST(StrideEstimator, TinyCycleYieldsNothing) {
  const StrideFixture s = make(synth::ActivityKind::Walking, 66);
  const core::StrideEstimator est = estimator_for(s.user);
  core::CycleRecord fake;
  fake.begin = 0;
  fake.mid = 5;
  fake.end = 10;
  fake.type = core::GaitType::Walking;
  EXPECT_TRUE(est.estimate_cycle(s.projected, fake).empty());
}

TEST(StrideEstimator, CycleOutOfRangeThrows) {
  const StrideFixture s = make(synth::ActivityKind::Walking, 67);
  const core::StrideEstimator est = estimator_for(s.user);
  core::CycleRecord fake;
  fake.begin = 0;
  fake.end = s.projected.vertical.size() + 10;
  fake.type = core::GaitType::Walking;
  EXPECT_THROW(est.estimate_cycle(s.projected, fake), InvalidArgument);
}

TEST(StrideEstimator, InvalidProfileThrows) {
  core::StrideConfig cfg;
  cfg.profile.arm_length = 0.0;
  EXPECT_THROW(core::StrideEstimator{cfg}, InvalidArgument);
}

TEST(StrideEstimator, SetProfileTakesEffect) {
  const StrideFixture s = make(synth::ActivityKind::Stepping, 68);
  core::StrideConfig cfg;
  cfg.profile = {s.user.arm_length, s.user.leg_length, 2.0};
  core::StrideEstimator est(cfg);

  // Doubling the leg length scales stepping strides up.
  std::vector<double> before;
  std::vector<double> after;
  for (const core::CycleRecord& c : s.counted.cycles) {
    if (c.type != core::GaitType::Stepping) continue;
    for (const core::SweepEstimate& e : est.estimate_cycle(s.projected, c)) {
      before.push_back(e.stride);
    }
  }
  core::StrideProfile big = cfg.profile;
  big.leg_length *= 2.0;
  est.set_profile(big);
  for (const core::CycleRecord& c : s.counted.cycles) {
    if (c.type != core::GaitType::Stepping) continue;
    for (const core::SweepEstimate& e : est.estimate_cycle(s.projected, c)) {
      after.push_back(e.stride);
    }
  }
  ASSERT_FALSE(before.empty());
  ASSERT_EQ(before.size(), after.size());
  EXPECT_GT(stats::mean(after), stats::mean(before));
}
