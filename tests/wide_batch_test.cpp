// The SIMD-wide batch lane engines must return bit-identical
// TrialOutcomes to the sequential engines (McConfig::batch == 0) — for
// every kernel (plain uniform, LESK, LESU), both CD modes, lane counts
// that are not a multiple of the group width, lanes retiring
// mid-vector, and on every available backend (AVX2 and the portable
// scalar4 fallback). The adversary policy picks the lane engine;
// adaptive built-ins (bernoulli & co.) ride the per-lane SoA wide
// engine and stay bit-identical too
// (tests/batch_adaptive_equivalence_test.cpp covers the full policy
// matrix), and a policy name with no lane engine is refused.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "protocols/lesk.hpp"
#include "protocols/lesu.hpp"
#include "protocols/plain_uniform.hpp"
#include "sim/batch.hpp"
#include "sim/montecarlo.hpp"
#include "support/expects.hpp"
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
  // Bit-identity, not approximate: the wide path replays the exact
  // double arithmetic of the sequential engines.
  ASSERT_EQ(a.transmissions, b.transmissions) << what << " trial " << trial;
  ASSERT_EQ(a.all_done, b.all_done) << what << " trial " << trial;
  ASSERT_EQ(a.unique_leader, b.unique_leader) << what << " trial " << trial;
  ASSERT_EQ(a.leader, b.leader) << what << " trial " << trial;
}

/// Backends available on this machine: scalar4 always, avx2 if usable.
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

struct Scenario {
  std::string name;
  UniformProtocolFactory factory;
  AdversarySpec adversary;
  std::uint64_t n;
};

/// One scenario per kernel, lane-invariant adversaries only (one
/// shared adversary per chunk). Small n keeps elections quick, so lanes
/// retire at staggered slots — including mid-vector, with live lanes
/// on both sides of the retired one.
[[nodiscard]] std::vector<Scenario> scenarios() {
  std::vector<Scenario> list;
  {
    AdversarySpec none;
    none.policy = "none";
    list.push_back({"lesk/none",
                    [] { return std::make_unique<Lesk>(LeskParams{0.5, 0.0}); },
                    none, 8});
  }
  {
    AdversarySpec sat;
    sat.policy = "saturating";
    sat.T = 32;
    sat.eps = 0.5;
    list.push_back(
        {"lesk/saturating",
         [] { return std::make_unique<Lesk>(LeskParams{0.25, 0.0}); }, sat,
         256});
  }
  {
    AdversarySpec per;
    per.policy = "periodic";
    per.T = 16;
    per.eps = 0.5;
    list.push_back({"lesu/periodic",
                    [] { return std::make_unique<Lesu>(LesuParams{}); }, per,
                    64});
  }
  {
    AdversarySpec pulse;
    pulse.policy = "pulse";
    pulse.T = 24;
    pulse.eps = 0.25;
    list.push_back({"uniform/pulse",
                    [] { return std::make_unique<PlainUniform>(3.0); }, pulse,
                    16});
  }
  return list;
}

enum class Engine { kAggregate, kHybrid };

/// The oracle: trials [first, first + count) of the sequential
/// (batch == 0) sweep with this seed.
[[nodiscard]] std::vector<TrialOutcome> sequential(
    Engine engine, const Scenario& sc, std::uint64_t seed,
    std::int64_t max_slots, std::size_t first, std::size_t count) {
  McConfig cfg;
  cfg.trials = first + count;
  cfg.seed = seed;
  cfg.max_slots = max_slots;
  cfg.parallel = false;
  cfg.keep_outcomes = true;
  const McResult res =
      engine == Engine::kAggregate
          ? run_aggregate_mc(sc.factory, sc.adversary, sc.n, cfg)
          : run_hybrid_mc(sc.factory, sc.adversary, sc.n, cfg);
  return {res.outcomes.begin() + static_cast<std::ptrdiff_t>(first),
          res.outcomes.end()};
}

/// The same trials as one batched chunk of `count` wide lanes.
[[nodiscard]] std::vector<TrialOutcome> wide_chunk(
    Engine engine, const Scenario& sc, std::uint64_t seed,
    std::int64_t max_slots, std::size_t first, std::size_t count) {
  const auto spec = batch_kernel_spec(*sc.factory());
  EXPECT_TRUE(spec.has_value()) << sc.name;
  std::vector<TrialOutcome> out(count);
  if (!spec) return out;
  const BatchConfig cfg{sc.n, max_slots};
  if (engine == Engine::kAggregate) {
    run_batch_aggregate_trials(*spec, sc.adversary, cfg, Rng(seed), first,
                               count, out.data());
  } else {
    run_batch_hybrid_trials(*spec, sc.adversary, cfg, Rng(seed), first, count,
                            out.data());
  }
  return out;
}

void expect_wide_matches_sequential(Engine engine, const Scenario& sc,
                                    std::uint64_t seed,
                                    std::int64_t max_slots, std::size_t first,
                                    std::size_t count,
                                    const std::string& what) {
  const auto ref = sequential(engine, sc, seed, max_slots, first, count);
  const auto wide = wide_chunk(engine, sc, seed, max_slots, first, count);
  for (std::size_t t = 0; t < count; ++t) {
    expect_outcome_eq(ref[t], wide[t], what + " " + sc.name, t);
  }
}

/// Lane counts straddling the group width: below, exact, 1 over, odd
/// multi-group, and a larger chunk.
constexpr std::size_t kLaneCounts[] = {1, 3, 4, 5, 7, 29};

TEST(WideBatch, AggregateWideMatchesSequentialOnEveryBackend) {
  for (const WideIsa isa : available_isas()) {
    IsaGuard guard(isa);
    for (const Scenario& sc : scenarios()) {
      for (const std::size_t count : kLaneCounts) {
        expect_wide_matches_sequential(Engine::kAggregate, sc, 0x5eedULL,
                                       20000, 2, count, wide_isa_name(isa));
      }
    }
  }
}

TEST(WideBatch, HybridWideMatchesSequentialOnEveryBackend) {
  for (const WideIsa isa : available_isas()) {
    IsaGuard guard(isa);
    for (const Scenario& sc : scenarios()) {
      for (const std::size_t count : kLaneCounts) {
        expect_wide_matches_sequential(Engine::kHybrid, sc, 0xabcULL, 40000,
                                       0, count, wide_isa_name(isa));
      }
    }
  }
}

TEST(WideBatch, CensoredLanesMatchTooOnEveryBackend) {
  // A slot budget far below the election time leaves every lane
  // censored: accumulator totals (not just elected outcomes) must agree
  // bit for bit.
  for (const WideIsa isa : available_isas()) {
    IsaGuard guard(isa);
    const Scenario sc = scenarios()[1];  // LESK vs saturating, n = 256
    const auto ref = sequential(Engine::kAggregate, sc, 0x17ULL, 40, 0, 6);
    const auto wide = wide_chunk(Engine::kAggregate, sc, 0x17ULL, 40, 0, 6);
    for (std::size_t t = 0; t < 6; ++t) {
      expect_outcome_eq(ref[t], wide[t], wide_isa_name(isa), t);
      ASSERT_FALSE(wide[t].elected);
      ASSERT_EQ(wide[t].slots, 40);
    }
  }
}

TEST(WideBatch, HybridCensoredLanesMatchTooOnEveryBackend) {
  // The weak-CD two-phase engine under the same tiny budget: every lane
  // censored, with its phase-1/phase-2 accumulators still bit-identical.
  for (const WideIsa isa : available_isas()) {
    IsaGuard guard(isa);
    const Scenario sc = scenarios()[1];  // LESK vs saturating, n = 256
    const auto ref = sequential(Engine::kHybrid, sc, 0x17ULL, 40, 0, 6);
    const auto wide = wide_chunk(Engine::kHybrid, sc, 0x17ULL, 40, 0, 6);
    for (std::size_t t = 0; t < 6; ++t) {
      expect_outcome_eq(ref[t], wide[t], wide_isa_name(isa), t);
      ASSERT_FALSE(wide[t].elected);
      ASSERT_EQ(wide[t].slots, 40);
    }
  }
}

/// A policy name that make_adversary does not know.
[[nodiscard]] Scenario unknown_policy_scenario() {
  AdversarySpec bogus;
  bogus.policy = "no_such_policy";
  bogus.T = 32;
  bogus.eps = 0.5;
  return {"lesk/no_such_policy",
          [] { return std::make_unique<Lesk>(LeskParams{0.5, 0.0}); }, bogus,
          64};
}

TEST(WideBatch, UnknownPolicyIsRefusedByTheAggregateLaneEngine) {
  // Every lane engine takes its jams from a LaneAdversaryBank, which
  // knows exactly the policies make_adversary knows: a chunk under any
  // other name must throw, as the sequential engine does, rather than
  // run without an adversary.
  const Scenario sc = unknown_policy_scenario();
  EXPECT_THROW((void)sequential(Engine::kAggregate, sc, 1, 1000, 0, 4),
               std::invalid_argument);
  EXPECT_THROW((void)wide_chunk(Engine::kAggregate, sc, 1, 1000, 0, 4),
               ContractViolation);
}

TEST(WideBatch, UnknownPolicyIsRefusedByTheHybridLaneEngine) {
  const Scenario sc = unknown_policy_scenario();
  EXPECT_THROW((void)sequential(Engine::kHybrid, sc, 1, 1000, 0, 4),
               std::invalid_argument);
  EXPECT_THROW((void)wide_chunk(Engine::kHybrid, sc, 1, 1000, 0, 4),
               ContractViolation);
}

TEST(WideBatch, McBatchBitIdenticalToSequential) {
  // End-to-end through run_*_mc: the batch knob goes wide for this
  // lane-invariant policy and must still match the sequential
  // per-trial reference.
  const UniformProtocolFactory factory = [] {
    return std::make_unique<Lesk>(LeskParams{0.5, 0.0});
  };
  AdversarySpec sat;
  sat.policy = "saturating";
  sat.T = 32;
  sat.eps = 0.5;
  McConfig seq;
  seq.trials = 21;
  seq.seed = 0xc0deULL;
  seq.max_slots = 20000;
  seq.parallel = false;
  seq.keep_outcomes = true;
  const McResult reference = run_aggregate_mc(factory, sat, 512, seq);
  McConfig cfg = seq;
  cfg.batch = 8;
  const McResult batched = run_aggregate_mc(factory, sat, 512, cfg);
  ASSERT_EQ(batched.outcomes.size(), reference.outcomes.size());
  for (std::size_t t = 0; t < reference.outcomes.size(); ++t) {
    expect_outcome_eq(reference.outcomes[t], batched.outcomes[t], "mc", t);
  }
}

TEST(WideBatch, AdaptivePolicyGoesWideBitIdentical) {
  // bernoulli draws its jam schedule from a per-lane rng; the batch
  // knob routes it onto the per-lane SoA wide engine — and must still
  // match the sequential reference bit for bit.
  const UniformProtocolFactory factory = [] {
    return std::make_unique<Lesu>(LesuParams{});
  };
  AdversarySpec bern;
  bern.policy = "bernoulli";
  bern.T = 64;
  bern.eps = 0.25;
  McConfig seq;
  seq.trials = 11;
  seq.seed = 0xfadeULL;
  seq.max_slots = 20000;
  seq.parallel = false;
  seq.keep_outcomes = true;
  const McResult reference = run_aggregate_mc(factory, bern, 256, seq);
  McConfig cfg = seq;
  cfg.batch = 8;
  const McResult batched = run_aggregate_mc(factory, bern, 256, cfg);
  for (std::size_t t = 0; t < reference.outcomes.size(); ++t) {
    expect_outcome_eq(reference.outcomes[t], batched.outcomes[t], "mc", t);
  }
}

TEST(WideBatch, AdaptivePolicyChunkMatchesSequentialBothCdModes) {
  // A bare chunk under an adaptive policy runs on per-lane
  // LaneAdversaryBank state; both CD modes must match the sequential
  // trials.
  AdversarySpec bern;
  bern.policy = "bernoulli";
  bern.T = 64;
  bern.eps = 0.25;
  const Scenario sc{"lesk/bernoulli",
                    [] { return std::make_unique<Lesk>(LeskParams{0.5, 0.0}); },
                    bern, 64};
  expect_wide_matches_sequential(Engine::kAggregate, sc, 1, 20000, 0, 9,
                                 "aggregate");
  expect_wide_matches_sequential(Engine::kHybrid, sc, 1, 20000, 0, 9,
                                 "hybrid");
}

TEST(WideBatch, WideSlotCountersRollUp) {
  if constexpr (!obs::kObsCompiledIn) {
    GTEST_SKIP() << "JAMELECT_OBS compiled out";
  }
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.reset();
  reg.set_enabled(true);
  const UniformProtocolFactory factory = [] {
    return std::make_unique<Lesk>(LeskParams{0.5, 0.0});
  };
  AdversarySpec none;
  none.policy = "none";
  McConfig cfg;
  cfg.trials = 8;
  cfg.seed = 3;
  cfg.max_slots = 20000;
  cfg.parallel = false;
  cfg.batch = 8;
  (void)run_aggregate_mc(factory, none, 64, cfg);
  const auto snap = reg.aggregate();
  reg.set_enabled(was_enabled);
  // The registration shim pins all three rollup counters into the
  // manifest; only the wide one accumulates on this run.
  ASSERT_TRUE(snap.counters.count("mc.batch_wide_slots"));
  ASSERT_TRUE(snap.counters.count("mc.batch_scalar_slots"));
  ASSERT_TRUE(snap.counters.count("mc.batch_fallbacks"));
  EXPECT_GT(snap.counters.at("mc.batch_wide_slots"), 0);
  EXPECT_EQ(snap.counters.at("mc.batch_scalar_slots"), 0);
  EXPECT_EQ(snap.counters.at("mc.batch_fallbacks"), 0);
  EXPECT_GT(snap.counters.at("engine.batch.cache_lookups"), 0);
}

}  // namespace
}  // namespace jamelect
