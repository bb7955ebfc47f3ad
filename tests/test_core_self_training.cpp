// Tests for user-profile self-training (paper SIII-C2 reconstruction).

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/ptrack.hpp"
#include "core/self_training.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

synth::SynthResult calibration_trace(const synth::UserProfile& user,
                                     std::uint64_t seed) {
  Rng rng(seed);
  // Mixed gait: stepping segments provide the direct bounce anchor.
  return synth::synthesize(synth::Scenario::mixed_gait(120.0), user,
                           synth::SynthOptions{}, rng);
}

}  // namespace

TEST(SelfTraining, LegLengthRecoveredWithTrueArm) {
  synth::UserProfile user;
  const auto cal = calibration_trace(user, 91);
  const double leg = core::train_leg_length(cal.trace, user.arm_length,
                                            cal.truth.total_distance());
  EXPECT_NEAR(leg, user.leg_length, 0.12);
}

TEST(SelfTraining, ArmLengthInPlausibleRange) {
  synth::UserProfile user;
  const auto cal = calibration_trace(user, 92);
  const double arm = core::train_arm_length(cal.trace);
  EXPECT_GE(arm, 0.5);
  EXPECT_LE(arm, 0.95);
  EXPECT_NEAR(arm, user.arm_length, 0.20);
}

TEST(SelfTraining, FullPassProducesConsistentDistance) {
  synth::UserProfile user;
  const auto cal = calibration_trace(user, 93);
  const core::SelfTrainingResult res =
      core::self_train(cal.trace, cal.truth.total_distance());
  EXPECT_GT(res.walking_cycles, 8u);
  // The trained profile reproduces the calibration distance closely.
  EXPECT_LT(res.leg_objective, 0.30);
}

TEST(SelfTraining, ThrowsWithoutWalking) {
  synth::UserProfile user;
  Rng rng(94);
  const auto idle = synth::synthesize(
      synth::Scenario::interference(synth::ActivityKind::Idle, 60.0,
                                    synth::Posture::Seated),
      user, synth::SynthOptions{}, rng);
  EXPECT_THROW(core::train_arm_length(idle.trace), Error);
}

TEST(SelfTraining, InvalidInputsThrow) {
  synth::UserProfile user;
  const auto cal = calibration_trace(user, 95);
  EXPECT_THROW(core::train_leg_length(cal.trace, 0.0, 100.0), InvalidArgument);
  EXPECT_THROW(core::train_leg_length(cal.trace, 0.7, -5.0), InvalidArgument);
}

TEST(SelfTraining, TrainedProfileBeatsWildGuess) {
  synth::UserProfile user;
  const auto cal = calibration_trace(user, 96);
  const core::SelfTrainingResult trained =
      core::self_train(cal.trace, cal.truth.total_distance());

  // Evaluate both profiles on a fresh walk.
  Rng rng(97);
  const auto eval = synth::synthesize(synth::Scenario::pure_walking(60.0),
                                      user, synth::SynthOptions{}, rng);
  const auto distance_error = [&](double arm, double leg) {
    core::PTrackConfig cfg;
    cfg.stride.profile = {arm, leg, 2.0};
    core::PTrack tracker(cfg);
    const double d = tracker.process(eval.trace).distance();
    return std::abs(d - eval.truth.total_distance());
  };
  const double err_trained =
      distance_error(trained.arm_length, trained.leg_length);
  const double err_guess = distance_error(0.55, 0.70);  // a poor guess
  EXPECT_LT(err_trained, err_guess);
}
