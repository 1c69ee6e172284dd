// LaneAdversaryBank (sim/lane_adversary.hpp) is the only jam source of
// the aggregate, hybrid and cohort lane engines, and it keeps its own
// copy of JammingBudget's recurrence. For every policy make_adversary
// accepts, a 7-lane bank fed seeded random public states must
//  * jam on exactly the slots of each lane's scalar twin
//    make_adversary(spec, base.child(first + k).child(0xad50)), fed the
//    same states, also across a swap-remove compaction; and
//  * never put more than floor((1 - eps) w) jams into a window of
//    w >= T slots — scanned directly, not through JammingBudget.
#include "sim/lane_adversary.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/adversary_spec.hpp"
#include "support/rng.hpp"

namespace jamelect {
namespace {

/// True iff no window [s, e) with e - s >= T holds more than
/// floor((1 - eps) (e - s)) jams. The test's eps values are binary
/// fractions, so the double product is exact.
[[nodiscard]] bool windows_within_budget(const std::vector<bool>& jams,
                                         std::int64_t T, double eps) {
  const auto n = static_cast<std::int64_t>(jams.size());
  for (std::int64_t s = 0; s < n; ++s) {
    std::int64_t count = 0;
    for (std::int64_t e = s + 1; e <= n; ++e) {
      count += jams[static_cast<std::size_t>(e - 1)] ? 1 : 0;
      const std::int64_t w = e - s;
      if (w < T) continue;
      const auto cap = static_cast<std::int64_t>(
          std::floor((1.0 - eps) * static_cast<double>(w)));
      if (count > cap) return false;
    }
  }
  return true;
}

/// A public state for one lane: a jammed slot is a Collision; a clean
/// one is random, weighted towards Collision so the mirror policies'
/// estimates climb far enough to flip their desire.
[[nodiscard]] std::int64_t random_state(Rng& rng, bool jammed) {
  if (jammed) return 2;
  const double r = rng.uniform();
  return r < 0.25 ? 0 : (r < 0.35 ? 1 : 2);
}

struct BudgetCase {
  std::int64_t T;
  double eps;
};

constexpr BudgetCase kBudgets[] = {{1, 0.5}, {8, 0.25}, {48, 0.375}, {16, 1.0}};
constexpr std::size_t kLanes = 7;
constexpr std::size_t kFirst = 5;

TEST(LaneAdversaryBank, EveryPolicyMatchesScalarTwinsAndKeepsTheBudget) {
  for (const std::string& policy : adversary_policy_names()) {
    for (const BudgetCase& bc : kBudgets) {
      SCOPED_TRACE(policy + " T=" + std::to_string(bc.T) +
                   " eps=" + std::to_string(bc.eps));
      AdversarySpec spec;
      spec.policy = policy;
      spec.T = bc.T;
      spec.eps = bc.eps;
      spec.n = 2;  // small n: the mirror policies' desire flips often
      const Rng base(0xba4c);

      LaneAdversaryBank bank(spec, base, kFirst, kLanes);
      std::vector<std::unique_ptr<BoundedAdversary>> twins;
      for (std::size_t k = 0; k < kLanes; ++k) {
        twins.push_back(
            make_adversary(spec, base.child(kFirst + k).child(0xad50)));
      }
      // schedules[k] follows whichever lane twins[k] is; a retired
      // lane's schedule is checked up to its retirement.
      std::vector<std::vector<bool>> schedules(kLanes);
      std::vector<std::size_t> owner(kLanes);
      for (std::size_t k = 0; k < kLanes; ++k) owner[k] = k;

      Rng feed(0x5747e5 + static_cast<std::uint64_t>(bc.T));
      const std::int64_t slots = 6 * bc.T + 60;
      std::size_t active = kLanes;
      std::vector<std::uint8_t> jam(kLanes, 0);
      std::vector<std::int64_t> states(kLanes, 0);
      std::int64_t some_slots = 0;
      for (std::int64_t slot = 0; slot < slots; ++slot) {
        if (slot == 3 * bc.T) {
          // Retire lane 2: the last live lane moves into its place.
          --active;
          bank.move_lane(2, active);
          twins[2] = std::move(twins[active]);
          owner[2] = owner[active];
        }
        const LaneAdversaryBank::Jams spread = bank.step(jam.data(), active);
        std::size_t jammed = 0;
        for (std::size_t k = 0; k < active; ++k) {
          const bool twin_jam = twins[k]->step();
          ASSERT_EQ(jam[k] != 0, twin_jam) << "slot " << slot << " lane " << k;
          schedules[owner[k]].push_back(twin_jam);
          jammed += twin_jam ? 1 : 0;
          states[k] = random_state(feed, twin_jam);
          twins[k]->observe({slot, static_cast<std::uint64_t>(states[k]),
                             twin_jam, static_cast<ChannelState>(states[k])});
        }
        const LaneAdversaryBank::Jams want =
            jammed == 0 ? LaneAdversaryBank::Jams::kNone
                        : (jammed == active ? LaneAdversaryBank::Jams::kAll
                                            : LaneAdversaryBank::Jams::kSome);
        ASSERT_EQ(spread, want) << "slot " << slot;
        some_slots += spread == LaneAdversaryBank::Jams::kSome ? 1 : 0;
        bank.observe(states.data(), active);
      }
      for (std::size_t k = 0; k < kLanes; ++k) {
        EXPECT_TRUE(windows_within_budget(schedules[k], bc.T, bc.eps))
            << "lane " << k;
      }
      // Wherever the budget admits a jam at all (a T-window may hold
      // floor((1 - eps) T) of them), the adaptive policies must
      // actually split the lanes.
      const bool can_jam = std::floor((1.0 - bc.eps) *
                                      static_cast<double>(bc.T)) >= 1.0;
      if (can_jam && (policy == "bernoulli" || policy == "single_denial" ||
                      policy == "collision_forcer")) {
        EXPECT_GT(some_slots, 0);
      }
    }
  }
}

}  // namespace
}  // namespace jamelect
