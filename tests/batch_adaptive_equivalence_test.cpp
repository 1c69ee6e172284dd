// Adaptive (lane-variant) adversary policies on the batch fast path.
//
// bernoulli, single_denial and collision_forcer draw or track per-lane
// state, so LaneAdversaryBank (sim/lane_adversary.hpp) runs them as
// per-lane SoA budget recurrences, tracked public estimates and policy
// rng streams, and the aggregate engine folds their per-lane jams into
// its fused slot primitive by zeroing the jammed lanes' thresholds.
// The contract is the same bit-identity the lane-invariant policies
// enjoy: for every adaptive policy, every batch kernel family (the
// LESK lattice walk, the fixed-exponent Uniform path and the generic
// kernels), both CD modes (strong-CD aggregate, weak-CD hybrid), every
// lane count, and every wide backend (AVX2 and the portable scalar4
// fallback), a batched chunk == the sequential per-trial reference,
// outcome field for outcome field. (CI also replays this suite under
// JAMELECT_FORCE_SCALAR=1, which pins the process-wide default to the
// portable backend — same contract.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/willard.hpp"
#include "protocols/lesk.hpp"
#include "protocols/lesu.hpp"
#include "protocols/plain_uniform.hpp"
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
  // Bit-identity, not approximate: the bank replays the exact integer
  // budget recurrence and double mirror arithmetic of the per-lane
  // virtual adversaries.
  ASSERT_EQ(a.transmissions, b.transmissions) << what << " trial " << trial;
  ASSERT_EQ(a.all_done, b.all_done) << what << " trial " << trial;
  ASSERT_EQ(a.unique_leader, b.unique_leader) << what << " trial " << trial;
  ASSERT_EQ(a.leader, b.leader) << what << " trial " << trial;
}

/// The three adaptive built-ins, each with tuning that actually
/// exercises its feedback loop at the given n, plus the two degenerate
/// bernoulli rates.
[[nodiscard]] std::vector<AdversarySpec> adaptive_policies() {
  std::vector<AdversarySpec> list;
  {
    AdversarySpec bern;
    bern.policy = "bernoulli";
    bern.T = 64;
    bern.eps = 0.25;  // q defaults to 1 - eps = 0.75
    list.push_back(bern);
  }
  {
    AdversarySpec bern_q;
    bern_q.policy = "bernoulli";
    bern_q.T = 32;
    bern_q.eps = 0.5;
    bern_q.q = 0.4;  // explicit q, distinct from 1 - eps
    list.push_back(bern_q);
  }
  {
    // q = 1: every lane desires every slot, so the budget alone decides
    // and all lanes jam together — the bank's all-jammed slots.
    AdversarySpec bern_all;
    bern_all.policy = "bernoulli";
    bern_all.T = 16;
    bern_all.eps = 0.5;
    bern_all.q = 1.0;
    list.push_back(bern_all);
  }
  {
    // eps = 1: q defaults to 1 - eps = 0, so the policy never jams.
    AdversarySpec bern_never;
    bern_never.policy = "bernoulli";
    bern_never.T = 16;
    bern_never.eps = 1.0;
    list.push_back(bern_never);
  }
  {
    AdversarySpec denial;
    denial.policy = "single_denial";
    denial.T = 48;
    denial.eps = 0.375;
    denial.threshold = 0.2;
    // Track the kernels' walk at LESK's own eps: a mirror stepping
    // slower than the protocol never reaches its trigger before the
    // election, and then never jams.
    denial.protocol_eps = 0.5;
    list.push_back(denial);
  }
  {
    AdversarySpec forcer;
    forcer.policy = "collision_forcer";
    forcer.T = 48;
    forcer.eps = 0.375;
    forcer.collision_threshold = 0.9;
    forcer.protocol_eps = 0.5;
    list.push_back(forcer);
  }
  return list;
}

/// Lane counts straddling the wide group width (4): below, exact,
/// 1 over, odd multi-group, larger chunk.
constexpr std::size_t kLaneCounts[] = {1, 3, 4, 5, 7, 29};

constexpr std::uint64_t kN = 64;
constexpr std::int64_t kMaxSlots = 20000;

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

enum class Engine { kAggregate, kHybrid };

/// One batch kernel and the protocol it stands in for.
struct KernelCase {
  const char* name;
  UniformProtocolFactory factory;
  BatchKernelSpec spec;
};

/// One kernel per aggregate code path: the fused LESK lattice walk,
/// the fixed-exponent Uniform path, and the generic scalar-stepped
/// kernels (LESU's phase machine and a baseline).
[[nodiscard]] std::vector<KernelCase> kernel_cases() {
  return {
      {"lesk", [] { return std::make_unique<Lesk>(LeskParams{0.5, 0.0}); },
       LeskParams{0.5, 0.0}},
      {"lesu", [] { return std::make_unique<Lesu>(LesuParams{}); },
       LesuParams{}},
      {"uniform",
       [] { return std::make_unique<PlainUniform>(PlainUniformParams{6.0}); },
       PlainUniformParams{6.0}},
      {"willard", [] { return std::make_unique<Willard>(); },
       WillardParams{}},
  };
}

/// For one kernel and policy, on every backend and lane count: trials
/// [first, first + count) as one batched chunk must equal the same
/// trials of the sequential (batch == 0) sweep with seed `seed`.
void expect_chunks_match_sequential(Engine engine, const KernelCase& kc,
                                    const AdversarySpec& adv,
                                    std::uint64_t seed,
                                    std::int64_t max_slots,
                                    std::size_t first) {
  McConfig seq;
  seq.trials = first + 29;  // the largest lane count
  seq.seed = seed;
  seq.max_slots = max_slots;
  seq.parallel = false;
  seq.keep_outcomes = true;
  const McResult ref = engine == Engine::kAggregate
                           ? run_aggregate_mc(kc.factory, adv, kN, seq)
                           : run_hybrid_mc(kc.factory, adv, kN, seq);
  ASSERT_EQ(ref.outcomes.size(), seq.trials);
  if (std::string(kc.name) == "lesk" && adv.eps < 1.0) {
    // Non-vacuous: against LESK every policy here does jam.
    std::int64_t jams = 0;
    for (const TrialOutcome& o : ref.outcomes) jams += o.jams;
    EXPECT_GT(jams, 0) << adv.policy;
  }
  const BatchConfig cfg{kN, max_slots};
  for (const WideIsa isa : available_isas()) {
    IsaGuard guard(isa);
    for (const std::size_t count : kLaneCounts) {
      std::vector<TrialOutcome> wide(count);
      if (engine == Engine::kAggregate) {
        run_batch_aggregate_trials(kc.spec, adv, cfg, Rng(seed), first, count,
                                   wide.data());
      } else {
        run_batch_hybrid_trials(kc.spec, adv, cfg, Rng(seed), first, count,
                                wide.data());
      }
      const std::string what =
          std::string(kc.name) + "/" + adv.policy + "/q=" +
          std::to_string(adv.q) + "/eps=" + std::to_string(adv.eps) + "/" +
          wide_isa_name(isa) + "/lanes=" + std::to_string(count);
      for (std::size_t t = 0; t < count; ++t) {
        expect_outcome_eq(ref.outcomes[first + t], wide[t], what, t);
      }
    }
  }
}

/// Every kernel case against every adaptive policy.
void expect_all_chunks_match_sequential(Engine engine, std::uint64_t seed,
                                        std::int64_t max_slots,
                                        std::size_t first) {
  for (const KernelCase& kc : kernel_cases()) {
    for (const AdversarySpec& adv : adaptive_policies()) {
      expect_chunks_match_sequential(engine, kc, adv, seed, max_slots, first);
    }
  }
}

TEST(BatchAdaptive, AggregateWideMatchesSequentialPerPolicyAndBackend) {
  expect_all_chunks_match_sequential(Engine::kAggregate, 0x5eedULL, kMaxSlots,
                                     2);
}

TEST(BatchAdaptive, HybridWideMatchesSequentialPerPolicyAndBackend) {
  expect_all_chunks_match_sequential(Engine::kHybrid, 0xabcULL, 2 * kMaxSlots,
                                     0);
}

TEST(BatchAdaptive, McSweepMatchesSequentialReferencePerPolicy) {
  // End-to-end through run_aggregate_mc and run_hybrid_mc: the batch
  // knob (which routes all adaptive built-ins wide) must reproduce the
  // sequential per-trial reference bit for bit, for both inner kernels.
  const UniformProtocolFactory lesk = [] {
    return std::make_unique<Lesk>(LeskParams{0.5, 0.0});
  };
  const UniformProtocolFactory lesu = [] {
    return std::make_unique<Lesu>(LesuParams{});
  };
  for (const AdversarySpec& adv : adaptive_policies()) {
    McConfig seq;
    seq.trials = 13;
    seq.seed = 0xc0deULL;
    seq.max_slots = kMaxSlots;
    seq.parallel = false;
    seq.keep_outcomes = true;
    McConfig batched = seq;
    batched.batch = 5;  // trials not a multiple: exercises the tail chunk

    const McResult agg_ref = run_aggregate_mc(lesk, adv, kN, seq);
    const McResult agg_bat = run_aggregate_mc(lesk, adv, kN, batched);
    ASSERT_EQ(agg_ref.outcomes.size(), agg_bat.outcomes.size());
    for (std::size_t t = 0; t < agg_ref.outcomes.size(); ++t) {
      expect_outcome_eq(agg_ref.outcomes[t], agg_bat.outcomes[t],
                        adv.policy + "/aggregate", t);
    }

    const McResult hyb_ref = run_hybrid_mc(lesu, adv, kN, seq);
    const McResult hyb_bat = run_hybrid_mc(lesu, adv, kN, batched);
    ASSERT_EQ(hyb_ref.outcomes.size(), hyb_bat.outcomes.size());
    for (std::size_t t = 0; t < hyb_ref.outcomes.size(); ++t) {
      expect_outcome_eq(hyb_ref.outcomes[t], hyb_bat.outcomes[t],
                        adv.policy + "/hybrid", t);
    }
  }
}

TEST(BatchAdaptive, LaneVariantBernoulliDrawsMatchSequentialDistribution) {
  // Statistical guard on the bank's per-lane policy rng: across many
  // wide trials, the realized desire rate of a bernoulli(q) adversary
  // must sit inside a generous binomial confidence band around q. The
  // bank draws lane k's stream from the exact per-trial derivation
  // (child(first+k).child(0xad50).child(0x6a616d)), so this catches a
  // reseeding or lane-permutation bug that per-trial bit-identity
  // tests would also catch — but localizes it to the draw layer, and
  // guards the q-vs-jam distinction (desire rate is q even when the
  // budget vetoes the jam).
  AdversarySpec bern;
  bern.policy = "bernoulli";
  bern.T = 16;
  bern.eps = 0.5;
  bern.q = 0.3;
  // Fixed broadcast exponent u = 1 over a huge n: every slot is a
  // Collision (count ~ Binomial(2^20, 1/2)), so no trial ever elects
  // and all of them run the full kSlots — an uncensored sample of the
  // adversary's jam stream.
  const BatchKernelSpec spec{PlainUniformParams{1.0}};
  constexpr std::size_t kTrials = 64;
  constexpr std::int64_t kSlots = 400;
  const BatchConfig wide_cfg{1u << 20, kSlots};
  std::vector<TrialOutcome> wide(kTrials);
  run_batch_aggregate_trials(spec, bern, wide_cfg, Rng(7), 0, kTrials,
                             wide.data());
  std::int64_t jams = 0;
  std::int64_t slots = 0;
  for (const TrialOutcome& o : wide) {
    ASSERT_EQ(o.slots, kSlots);
    jams += o.jams;
    slots += o.slots;
  }
  // Jams <= desires: the (T, 1-eps) budget admits an eps=0.5 duty cycle
  // and q = 0.3 < 0.5, so asymptotically every desire is granted; the
  // realized jam rate estimates q. Tolerance: 6 sigma of the binomial
  // (draws are independent across lanes/slots), plus slack for the
  // budget's warm-up vetoes.
  const double total = static_cast<double>(slots);
  const double rate = static_cast<double>(jams) / total;
  const double sigma = std::sqrt(bern.q * (1.0 - bern.q) / total);
  EXPECT_NEAR(rate, bern.q, 6.0 * sigma + 0.01)
      << "jams=" << jams << " slots=" << slots;
}

}  // namespace
}  // namespace jamelect
