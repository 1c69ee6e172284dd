// The weak-CD hybrid lanes (run_batch_hybrid_trials) against the
// sequential Notification engine (run_hybrid_notification, reached via
// McConfig::batch == 0), trial for trial and field for field, across
// the service's request grid and the corners of the role partition:
//
//  * n in {3, 4, 5, 64, 2^14, 2^20}. At n = 3, P3's confirmation count
//    in C1 is n - 2 = 1, a Single rather than a Collision.
//  * LESK from initial_u = 0, so every kernel restarts at p = 1: the
//    Bernoulli roles' fixed-count path (no draw) runs at every interval
//    start. LESU runs the generic-kernel path.
//  * none, periodic, saturating, bernoulli, collision_forcer and
//    single_denial: no jams, shared jams on every lane, and per-lane
//    jams with per-lane bank state that phase-change swaps must carry.
//  * lane counts {1, 3, 4, 5, 64}, on every wide backend.
//
// Large-n LESK chunks spend their first intervals with every lane in P1
// (no Single is likely before u nears log2 n), so C2 and C3 run all-idle
// slots; a saturating jammer holds P4 lanes in C1 (a jammed Null is a
// Collision), so P4 lanes see both jammed and clean C1 slots.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "protocols/lesk.hpp"
#include "protocols/lesu.hpp"
#include "sim/batch.hpp"
#include "sim/montecarlo.hpp"
#include "support/wide_rng.hpp"

namespace jamelect {
namespace {

void expect_outcome_eq(const TrialOutcome& a, const TrialOutcome& b,
                       const std::string& what, std::size_t trial) {
  ASSERT_EQ(a.elected, b.elected) << what << " trial " << trial;
  ASSERT_EQ(a.slots, b.slots) << what << " trial " << trial;
  ASSERT_EQ(a.jams, b.jams) << what << " trial " << trial;
  ASSERT_EQ(a.nulls, b.nulls) << what << " trial " << trial;
  ASSERT_EQ(a.singles, b.singles) << what << " trial " << trial;
  ASSERT_EQ(a.collisions, b.collisions) << what << " trial " << trial;
  // Bit-identity: the lanes replay the sequential double arithmetic.
  ASSERT_EQ(a.transmissions, b.transmissions) << what << " trial " << trial;
  ASSERT_EQ(a.all_done, b.all_done) << what << " trial " << trial;
  ASSERT_EQ(a.unique_leader, b.unique_leader) << what << " trial " << trial;
  ASSERT_EQ(a.leader, b.leader) << what << " trial " << trial;
}

[[nodiscard]] std::vector<WideIsa> available_isas() {
  std::vector<WideIsa> isas{WideIsa::kScalar4};
  if (wide_avx2_supported()) isas.push_back(WideIsa::kAvx2);
  return isas;
}

class IsaGuard {
 public:
  explicit IsaGuard(WideIsa isa) { set_wide_isa_for_testing(isa); }
  ~IsaGuard() { reset_wide_isa_for_testing(); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
};

struct Protocol {
  std::string name;
  UniformProtocolFactory factory;
};

[[nodiscard]] std::vector<Protocol> protocols() {
  return {
      {"lesk", [] { return std::make_unique<Lesk>(LeskParams{0.5, 0.0}); }},
      {"lesu", [] { return std::make_unique<Lesu>(LesuParams{}); }},
  };
}

[[nodiscard]] std::vector<AdversarySpec> policies(std::uint64_t n) {
  std::vector<AdversarySpec> list;
  for (const char* name : {"none", "periodic", "saturating", "bernoulli",
                           "collision_forcer", "single_denial"}) {
    AdversarySpec spec;
    spec.policy = name;
    spec.T = 16;
    spec.eps = 0.5;
    spec.n = n;
    list.push_back(spec);
  }
  return list;
}

constexpr std::uint64_t kNs[] = {3, 4, 5, 64, 1 << 14, 1 << 20};
constexpr std::size_t kLaneCounts[] = {1, 3, 4, 5, 64};
constexpr std::size_t kFirst = 2;  // chunks start mid-sweep
constexpr std::int64_t kMaxSlots = 1 << 15;

/// Trials [kFirst, kFirst + 64) of the sequential sweep.
[[nodiscard]] std::vector<TrialOutcome> sequential(const Protocol& proto,
                                                   const AdversarySpec& adv,
                                                   std::uint64_t n,
                                                   std::uint64_t seed) {
  McConfig cfg;
  cfg.trials = kFirst + 64;
  cfg.seed = seed;
  cfg.max_slots = kMaxSlots;
  cfg.parallel = false;
  cfg.keep_outcomes = true;
  const McResult res = run_hybrid_mc(proto.factory, adv, n, cfg);
  return {res.outcomes.begin() + static_cast<std::ptrdiff_t>(kFirst),
          res.outcomes.end()};
}

void expect_grid_matches(const Protocol& proto) {
  const auto spec = batch_kernel_spec(*proto.factory());
  ASSERT_TRUE(spec.has_value()) << proto.name;
  for (const std::uint64_t n : kNs) {
    for (const AdversarySpec& adv : policies(n)) {
      const std::uint64_t seed = 0x4b1d + n;
      const auto ref = sequential(proto, adv, n, seed);
      for (const WideIsa isa : available_isas()) {
        IsaGuard guard(isa);
        for (const std::size_t count : kLaneCounts) {
          std::vector<TrialOutcome> lanes(count);
          run_batch_hybrid_trials(*spec, adv, {n, kMaxSlots}, Rng(seed),
                                  kFirst, count, lanes.data());
          const std::string what = proto.name + "/" + adv.policy + " n=" +
                                   std::to_string(n) + " lanes=" +
                                   std::to_string(count) + " " +
                                   wide_isa_name(isa);
          for (std::size_t t = 0; t < count; ++t) {
            expect_outcome_eq(ref[t], lanes[t], what, t);
            if (testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(HybridLanes, LeskMatchesSequentialAcrossTheGrid) {
  expect_grid_matches(protocols()[0]);
}

TEST(HybridLanes, LesuMatchesSequentialAcrossTheGrid) {
  expect_grid_matches(protocols()[1]);
}

TEST(HybridLanes, CensoredLanesMatchSequential) {
  // A budget that ends mid-phase: lanes finalize from every phase.
  for (const Protocol& proto : protocols()) {
    const auto spec = batch_kernel_spec(*proto.factory());
    ASSERT_TRUE(spec.has_value());
    for (const AdversarySpec& adv : policies(64)) {
      for (const std::int64_t budget : {1, 5, 40, 200}) {
        McConfig cfg;
        cfg.trials = 16;
        cfg.seed = 77;
        cfg.max_slots = budget;
        cfg.parallel = false;
        cfg.keep_outcomes = true;
        const McResult ref = run_hybrid_mc(proto.factory, adv, 64, cfg);
        std::vector<TrialOutcome> lanes(16);
        run_batch_hybrid_trials(*spec, adv, {64, budget}, Rng(77), 0, 16,
                                lanes.data());
        for (std::size_t t = 0; t < 16; ++t) {
          expect_outcome_eq(ref.outcomes[t], lanes[t],
                            proto.name + "/" + adv.policy + " budget " +
                                std::to_string(budget),
                            t);
          if (testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace jamelect
