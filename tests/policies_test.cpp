#include "adversary/policies.hpp"

#include <gtest/gtest.h>

#include "support/expects.hpp"

#include "adversary/adversary.hpp"
#include "adversary/interval_buster.hpp"
#include "protocols/interval_partition.hpp"
#include "protocols/lesk.hpp"
#include "support/rng.hpp"

namespace jamelect {
namespace {

JammingBudget roomy_budget() { return JammingBudget(4, {1, 2}); }

TEST(NoJamPolicy, NeverDesires) {
  NoJamPolicy p;
  auto b = roomy_budget();
  for (Slot s = 0; s < 100; ++s) EXPECT_FALSE(p.desires_jam(s, b));
  EXPECT_EQ(p.name(), "none");
}

TEST(SaturatingPolicy, DesiresExactlyWhenLegal) {
  SaturatingPolicy p;
  JammingBudget b(2, {1, 2});
  int desires = 0;
  for (Slot s = 0; s < 30; ++s) {
    const bool d = p.desires_jam(s, b);
    EXPECT_EQ(d, b.can_jam());
    b.commit(d && b.can_jam());
    desires += d ? 1 : 0;
  }
  EXPECT_GT(desires, 0);
}

TEST(PeriodicPolicy, BurstShape) {
  PeriodicPolicy p(10, 3);
  auto b = roomy_budget();
  for (Slot s = 0; s < 40; ++s) {
    EXPECT_EQ(p.desires_jam(s, b), (s % 10) < 3) << s;
  }
}

TEST(PeriodicPolicy, ZeroBurstNeverDesires) {
  PeriodicPolicy p(5, 0);
  auto b = roomy_budget();
  for (Slot s = 0; s < 20; ++s) EXPECT_FALSE(p.desires_jam(s, b));
}

TEST(PeriodicPolicy, RejectsBadParams) {
  EXPECT_THROW(PeriodicPolicy(0, 0), ContractViolation);
  EXPECT_THROW(PeriodicPolicy(5, 6), ContractViolation);
}

TEST(BernoulliPolicy, RateApproximatelyQ) {
  BernoulliPolicy p(0.3, Rng(77));
  auto b = roomy_budget();
  int hits = 0;
  constexpr int kN = 20000;
  for (Slot s = 0; s < kN; ++s) hits += p.desires_jam(s, b) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(PulsePolicy, DutyCycle) {
  PulsePolicy p(2, 3);
  auto b = roomy_budget();
  const bool expected[] = {true, true, false, false, false,
                           true, true, false, false, false};
  for (Slot s = 0; s < 10; ++s) {
    EXPECT_EQ(p.desires_jam(s, b), expected[s]) << s;
  }
}

TEST(PulsePolicy, RefusesAPeriodThatOverflows) {
  // desires_jam reduces the slot modulo on + off, which must fit.
  constexpr std::int64_t kHalf = std::int64_t{1} << 62;
  EXPECT_THROW(PulsePolicy(kHalf, kHalf), ContractViolation);
  EXPECT_THROW(PulsePolicy(0, 1), ContractViolation);
  EXPECT_THROW(PulsePolicy(1, -1), ContractViolation);
  PulsePolicy widest(kHalf, kHalf - 1);
  auto b = roomy_budget();
  EXPECT_TRUE(widest.desires_jam(kHalf - 1, b));
  EXPECT_FALSE(widest.desires_jam(kHalf, b));
}

TEST(LeskEstimateMirror, TracksTheWalk) {
  LeskEstimateMirror m(0.5);  // increment eps/8 = 1/16
  EXPECT_DOUBLE_EQ(m.u(), 0.0);
  m.observe(ChannelState::kCollision);
  EXPECT_DOUBLE_EQ(m.u(), 1.0 / 16.0);
  for (int i = 0; i < 32; ++i) m.observe(ChannelState::kCollision);
  EXPECT_NEAR(m.u(), 33.0 / 16.0, 1e-12);
  m.observe(ChannelState::kNull);
  EXPECT_NEAR(m.u(), 33.0 / 16.0 - 1.0, 1e-12);
  // Floors at zero like the protocol.
  for (int i = 0; i < 10; ++i) m.observe(ChannelState::kNull);
  EXPECT_DOUBLE_EQ(m.u(), 0.0);
  // Single freezes the mirror (protocol over).
  m.observe(ChannelState::kCollision);
  const double before = m.u();
  m.observe(ChannelState::kSingle);
  EXPECT_DOUBLE_EQ(m.u(), before);
}

TEST(SingleDenialPolicy, QuietWhileEstimateFarFromLog2N) {
  // n = 1024: at u = 0 everyone transmits -> P[Single] ~ 0 -> no desire.
  SingleDenialPolicy p(0.5, 1024, 0.02);
  auto b = roomy_budget();
  EXPECT_FALSE(p.desires_jam(0, b));
}

TEST(SingleDenialPolicy, FiresInTheSweetWindow) {
  SingleDenialPolicy p(0.5, 1024, 0.02);
  auto b = roomy_budget();
  // Feed Collisions until the mirrored u reaches ~log2(n) = 10.
  for (int i = 0; i < 10 * 16; ++i) {
    p.observe({i, 2, false, ChannelState::kCollision});
  }
  EXPECT_TRUE(p.desires_jam(200, b));
}

TEST(CollisionForcerPolicy, JamsWhenChannelWouldNotCollideAlone) {
  CollisionForcerPolicy p(0.5, 1024);
  auto b = roomy_budget();
  // u = 0: all 1024 stations transmit, collision certain -> save budget.
  EXPECT_FALSE(p.desires_jam(0, b));
  // Push the mirror to u ~ 14 (p*n ~ 1/16): collision unlikely -> jam.
  for (int i = 0; i < 14 * 16; ++i) {
    p.observe({i, 2, false, ChannelState::kCollision});
  }
  EXPECT_TRUE(p.desires_jam(300, b));
}

TEST(IntervalBuster, IcesSmallIntervalsOnly) {
  // T = 32, eps = 1/2: admissible burst = 16 slots, so intervals of
  // size <= 16 (blocks i <= 4) are targeted unconditionally.
  IntervalBusterPolicy p(0);
  JammingBudget b(32, {1, 2});
  // Slot 3 starts C^1_1 (size 2 <= 16): targeted.
  EXPECT_TRUE(p.desires_jam(3, b));
  // Block 5 intervals have size 32 > 16: falls back to budget pressure.
  const Slot big = interval_first_slot(5, IntervalSet::kC1);
  EXPECT_EQ(p.desires_jam(big, b), b.can_jam());
  // Padding slots are never worth a jam.
  EXPECT_FALSE(p.desires_jam(0, b));
}

TEST(IntervalBuster, TargetSetRestriction) {
  IntervalBusterPolicy c2_only(2);
  JammingBudget b(32, {1, 2});
  EXPECT_FALSE(c2_only.desires_jam(3, b) && !b.can_jam());  // C1 slot
  EXPECT_TRUE(c2_only.desires_jam(5, b));                   // C^1_2
  EXPECT_THROW(IntervalBusterPolicy bad(4), ContractViolation);
}

TEST(OracleDenial, MirrorsAnArbitraryUniformProtocol) {
  // Against LESK at u near log2 n the oracle wants the slot; far from
  // it (u = 0, everyone transmits) it does not.
  OracleDenialPolicy p(std::make_unique<Lesk>(0.5), 1024, 0.02);
  auto b = roomy_budget();
  EXPECT_FALSE(p.desires_jam(0, b));
  for (int i = 0; i < 10 * 16; ++i) {
    p.observe({i, 2, false, ChannelState::kCollision});
  }
  EXPECT_TRUE(p.desires_jam(200, b));
  EXPECT_EQ(p.name(), "oracle_denial");
  EXPECT_THROW(OracleDenialPolicy bad(nullptr, 4), ContractViolation);
}

TEST(BoundedAdversary, FiltersPolicyThroughBudget) {
  // Saturating policy against eps = 1 (no jams allowed ever).
  BoundedAdversary adv(4, {1, 1}, std::make_unique<SaturatingPolicy>());
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(adv.step());
  EXPECT_EQ(adv.budget().jams(), 0);
}

TEST(BoundedAdversary, GreedyRealizesBudget) {
  BoundedAdversary adv(8, {1, 4}, std::make_unique<SaturatingPolicy>());
  std::int64_t jams = 0;
  for (int i = 0; i < 800; ++i) jams += adv.step() ? 1 : 0;
  // Long-run density close to (but never above) 1 - eps = 3/4.
  EXPECT_GT(jams, 800 * 0.6);
  EXPECT_LE(jams, 800 * 0.75 + 8);
}

TEST(BoundedAdversary, RequiresPolicy) {
  EXPECT_THROW(BoundedAdversary(4, {1, 2}, nullptr), ContractViolation);
}

}  // namespace
}  // namespace jamelect
