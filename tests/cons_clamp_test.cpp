// Unit coverage of the execution clamp (cons/clamp.hpp) and the throttle
// hysteresis built on it: engagement counting, the never-retract rule, the
// width taken as given, release only after kCalmRounds calm rounds, and the
// side-effect-free stress guard that idle-poll elision asks.
#include <gtest/gtest.h>

#include "cons/clamp.hpp"

namespace cagvt::cons {
namespace {

TEST(ClampTest, EngagementsCountOnlyReleasedToEngagedTransitions) {
  Clamp clamp;
  EXPECT_FALSE(clamp.engaged());
  EXPECT_EQ(clamp.bound(), pdes::kVtInfinity);
  EXPECT_TRUE(clamp.hold(10.0, 4.0));
  EXPECT_FALSE(clamp.hold(12.0, 4.0));  // slides, no new engagement
  EXPECT_FALSE(clamp.hold(15.0, 4.0));
  EXPECT_EQ(clamp.bound(), 19.0);
  EXPECT_EQ(clamp.engagements(), 1u);
}

TEST(ClampTest, HoldBelowTheBoundNeverRetractsIt) {
  // A restore rewinds GVT below the granted bound; the bound stays.
  Clamp clamp;
  clamp.hold(20.0, 4.0);
  EXPECT_FALSE(clamp.hold(5.0, 4.0));
  EXPECT_EQ(clamp.bound(), 24.0);
  EXPECT_EQ(clamp.engagements(), 1u);
}

TEST(ClampTest, ReleaseThenHoldCountsANewEngagement) {
  Clamp clamp;
  clamp.hold(10.0, 2.0);
  clamp.release();
  EXPECT_FALSE(clamp.engaged());
  EXPECT_EQ(clamp.bound(), pdes::kVtInfinity);
  EXPECT_TRUE(clamp.hold(3.0, 2.0));  // a fresh engagement starts at gvt + width
  EXPECT_EQ(clamp.bound(), 5.0);
  EXPECT_EQ(clamp.engagements(), 2u);

  EXPECT_FALSE(clamp.follow(false, 6.0, 2.0));
  EXPECT_FALSE(clamp.engaged());
  EXPECT_TRUE(clamp.follow(true, 6.0, 2.0));
  EXPECT_EQ(clamp.engagements(), 3u);
}

TEST(ClampTest, SubUnitWidthIsKeptAsGiven) {
  Clamp clamp;
  clamp.hold(10.0, 0.25);
  EXPECT_EQ(clamp.bound(), 10.25);
  Throttle throttle(0.5);
  throttle.adopt(3.0, /*stressed=*/true);
  EXPECT_EQ(throttle.bound(), 3.5);
}

TEST(ThrottleTest, StressEngagesAtTheLastAdoptedGvt) {
  Throttle throttle(4.0);
  throttle.adopt(6.0, /*stressed=*/false);  // calm round: stays released
  EXPECT_EQ(throttle.bound(), pdes::kVtInfinity);
  throttle.stress();
  EXPECT_EQ(throttle.bound(), 10.0);
  throttle.stress();  // already engaged: no second engagement
  EXPECT_EQ(throttle.engagements(), 1u);
}

TEST(ThrottleTest, StressIsNoopOnlyWhenEngagedAtOrAboveTheStressBound) {
  Throttle throttle(4.0);
  EXPECT_FALSE(throttle.stress_is_noop());  // released: stress would engage
  throttle.adopt(6.0, /*stressed=*/false);
  EXPECT_FALSE(throttle.stress_is_noop());
  throttle.stress();
  EXPECT_TRUE(throttle.stress_is_noop());  // engaged exactly at 6 + 4
  throttle.stress();
  EXPECT_EQ(throttle.bound(), 10.0);
  EXPECT_EQ(throttle.engagements(), 1u);
  // A restore's round may report a lower GVT: the bound stays above it.
  throttle.adopt(3.0, /*stressed=*/true);
  EXPECT_EQ(throttle.bound(), 10.0);
  EXPECT_TRUE(throttle.stress_is_noop());
  // A calm round slides the bound; stress at the new GVT then holds it.
  throttle.adopt(9.0, /*stressed=*/false);
  EXPECT_EQ(throttle.bound(), 13.0);
  EXPECT_TRUE(throttle.stress_is_noop());
  // Once released, stress would engage again.
  throttle.adopt(9.5, /*stressed=*/false);
  EXPECT_EQ(throttle.bound(), pdes::kVtInfinity);
  EXPECT_FALSE(throttle.stress_is_noop());
}

TEST(ThrottleTest, ReleasesOnlyAfterCalmRoundsAndSlidesWhileCooling) {
  Throttle throttle(2.0);
  throttle.adopt(10.0, /*stressed=*/true);
  EXPECT_EQ(throttle.bound(), 12.0);
  for (int calm = 1; calm < kCalmRounds; ++calm) {
    throttle.adopt(10.0 + 5.0 * calm, /*stressed=*/false);
    EXPECT_EQ(throttle.bound(), 12.0 + 5.0 * calm) << "cooling round " << calm;
  }
  throttle.adopt(30.0, /*stressed=*/false);
  EXPECT_EQ(throttle.bound(), pdes::kVtInfinity);
  EXPECT_EQ(throttle.engagements(), 1u);
}

TEST(ThrottleTest, StressedRoundRestartsTheCalmCount) {
  Throttle throttle(1.0);
  throttle.adopt(1.0, /*stressed=*/true);
  for (int calm = 1; calm < kCalmRounds; ++calm) throttle.adopt(2.0, /*stressed=*/false);
  throttle.adopt(3.0, /*stressed=*/true);  // interrupts the cool-off
  for (int calm = 1; calm < kCalmRounds; ++calm) {
    throttle.adopt(4.0, /*stressed=*/false);
    EXPECT_TRUE(throttle.bound() != pdes::kVtInfinity) << "released early";
  }
  throttle.adopt(5.0, /*stressed=*/false);
  EXPECT_EQ(throttle.bound(), pdes::kVtInfinity);
  EXPECT_EQ(throttle.engagements(), 1u);
}

TEST(ThrottleTest, ResetReleasesButKeepsTheEngagementCount) {
  Throttle throttle(2.0);
  throttle.adopt(8.0, /*stressed=*/true);
  throttle.adopt(9.0, /*stressed=*/false);  // one calm round banked
  throttle.reset();
  EXPECT_EQ(throttle.bound(), pdes::kVtInfinity);
  EXPECT_EQ(throttle.engagements(), 1u);
  throttle.stress();  // re-engages at the last adopted GVT
  EXPECT_EQ(throttle.bound(), 11.0);
  EXPECT_EQ(throttle.engagements(), 2u);
  throttle.adopt(10.0, /*stressed=*/false);  // the reset cleared the banked round
  EXPECT_EQ(throttle.bound(), 12.0);
}

}  // namespace
}  // namespace cagvt::cons
