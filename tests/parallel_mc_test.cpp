// Scheduling determinism of the multi-core wide-batch orchestrator:
// per-trial TrialOutcomes must be bit-identical to the sequential
// unbatched engines at every thread count (serial, and pools pinned to
// 1, 3, and 8 workers via McConfig::pool), for a lane-invariant and an
// adaptive adversary — with partial final chunks in play — and a
// mid-run cooperative shutdown must drain to a chunk-aligned subset
// whose outcomes match the uninterrupted run trial for trial.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "protocols/lesk.hpp"
#include "sim/batch.hpp"
#include "sim/montecarlo.hpp"
#include "support/shutdown.hpp"
#include "support/thread_pool.hpp"

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
  ASSERT_EQ(a.transmissions, b.transmissions) << what << " trial " << trial;
}

[[nodiscard]] bool outcome_equal(const TrialOutcome& a, const TrialOutcome& b) {
  return a.elected == b.elected && a.slots == b.slots && a.jams == b.jams &&
         a.nulls == b.nulls && a.singles == b.singles &&
         a.collisions == b.collisions && a.transmissions == b.transmissions;
}

UniformProtocolFactory lesk_factory() {
  return [] { return std::make_unique<Lesk>(LeskParams{0.5, 0.0}); };
}

/// A lane-invariant jamming adversary (one shared adversary per chunk).
AdversarySpec saturating() {
  AdversarySpec spec;
  spec.policy = "saturating";
  spec.T = 32;
  spec.eps = 0.5;
  return spec;
}

/// trials = 20 with batch = 7 forces a partial final chunk (7, 7, 6);
/// batch = 0 is the sequential reference.
McConfig orchestrated(ThreadPool* pool, std::size_t batch = 7) {
  McConfig config;
  config.trials = 20;
  config.seed = 0x5eedULL;
  config.max_slots = 20'000;
  config.parallel = pool != nullptr;
  config.batch = batch;
  config.pool = pool;
  config.keep_outcomes = true;
  return config;
}

/// An adaptive policy (per-lane LaneAdversaryBank state).
AdversarySpec bernoulli() {
  AdversarySpec spec;
  spec.policy = "bernoulli";
  spec.T = 64;
  spec.eps = 0.25;
  return spec;
}

/// LESK at n = 256 through `run` (run_aggregate_mc or run_hybrid_mc).
template <class Run>
McResult run_lesk(Run run, const AdversarySpec& adv, const McConfig& config) {
  return run(lesk_factory(), adv, 256, config);
}

void expect_same_outcomes(const McResult& reference, const McResult& result,
                          const std::string& what) {
  ASSERT_EQ(result.outcomes.size(), reference.outcomes.size()) << what;
  for (std::size_t t = 0; t < reference.outcomes.size(); ++t) {
    expect_outcome_eq(reference.outcomes[t], result.outcomes[t], what, t);
  }
}

/// The orchestrator contract: every worker count yields the per-trial
/// outcomes of the plain sequential path — chunk partitioning and
/// work-stealing order must never touch a random draw.
template <class Run>
void expect_pools_match_sequential(Run run, const AdversarySpec& adv,
                                   const std::string& what) {
  const McResult reference = run_lesk(run, adv, orchestrated(nullptr, 0));
  ASSERT_EQ(reference.outcomes.size(), 20u);
  for (const std::size_t workers : {1u, 3u, 8u}) {
    ThreadPool pool(workers);
    ASSERT_EQ(pool.size(), workers);
    expect_same_outcomes(reference, run_lesk(run, adv, orchestrated(&pool)),
                         what + "/workers" + std::to_string(workers));
  }
}

const auto kAggregate = [](auto&&... args) {
  return run_aggregate_mc(args...);
};
const auto kHybrid = [](auto&&... args) { return run_hybrid_mc(args...); };

TEST(ParallelMc, XoshiroOrchestratorMatchesSequentialUnbatchedReference) {
  // The serial chunk walk (batch > 0, no pool) is not merely internally
  // consistent: it must reproduce the plain sequential per-trial path
  // bit for bit (same mix64(seed, k) stream derivation), for both
  // adversary flavors and both inner kernels.
  for (const AdversarySpec& adv : {saturating(), bernoulli()}) {
    expect_same_outcomes(run_lesk(kAggregate, adv, orchestrated(nullptr, 0)),
                         run_lesk(kAggregate, adv, orchestrated(nullptr)),
                         "aggregate/" + adv.policy);
    expect_same_outcomes(run_lesk(kHybrid, adv, orchestrated(nullptr, 0)),
                         run_lesk(kHybrid, adv, orchestrated(nullptr)),
                         "hybrid/" + adv.policy);
  }
}

TEST(ParallelMc, OutcomesMatchSequentialAcrossPoolSizes) {
  expect_pools_match_sequential(kAggregate, saturating(), "aggregate");
}

TEST(ParallelMc, HybridOutcomesMatchSequentialAcrossPoolSizes) {
  expect_pools_match_sequential(kHybrid, saturating(), "hybrid");
}

TEST(ParallelMc, AdaptivePolicyOutcomesMatchSequentialAcrossPoolSizes) {
  // Each chunk builds its own LaneAdversaryBank from the trial indices
  // it owns, so the per-lane jam streams must not depend on which
  // worker ran the chunk either.
  expect_pools_match_sequential(kAggregate, bernoulli(), "aggregate");
}

TEST(ParallelMc, HybridAdaptivePolicyOutcomesMatchSequentialAcrossPoolSizes) {
  expect_pools_match_sequential(kHybrid, bernoulli(), "hybrid");
}

TEST(ParallelMc, EveryPolicyOutcomesMatchSequentialAcrossPoolSizes) {
  // Every policy make_adversary accepts runs on the chunks'
  // LaneAdversaryBank, shared or per lane: its jams must not depend on
  // chunking or on the worker either, in both CD modes.
  for (const std::string& policy : adversary_policy_names()) {
    AdversarySpec spec;
    spec.policy = policy;
    spec.T = 48;
    spec.eps = 0.375;
    spec.on = 3;
    spec.off = 2;
    spec.threshold = 0.2;
    spec.collision_threshold = 0.9;
    spec.protocol_eps = 0.5;  // the mirror policies track LESK(0.5)
    expect_pools_match_sequential(kAggregate, spec, "aggregate/" + policy);
    expect_pools_match_sequential(kHybrid, spec, "hybrid/" + policy);
  }
}

TEST(ParallelMc, MidRunDrainIsChunkAlignedSubsetOnPinnedPool) {
  // Race a cooperative shutdown against an orchestrated sweep on a
  // pinned 3-worker pool. Chunks are all-or-nothing, so the partial
  // result must cover a whole number of chunks, and — because trial k's
  // outcome depends only on (seed, k) — every completed chunk must
  // match the same chunk of an uninterrupted run bit for bit.
  struct Guard {
    Guard() { clear_shutdown(); }
    ~Guard() { clear_shutdown(); }
  } guard;

  constexpr std::size_t kTrials = 50'000;
  constexpr std::size_t kBatch = 8;  // divides kTrials: all chunks whole
  ThreadPool pool(3);
  McConfig config = orchestrated(&pool);
  config.trials = kTrials;
  config.batch = kBatch;
  config.max_slots = 10'000;

  std::thread killer([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    request_shutdown();
  });
  const McResult partial =
      run_aggregate_mc(lesk_factory(), AdversarySpec{}, 256, config);
  killer.join();
  clear_shutdown();
  if (!partial.interrupted) GTEST_SKIP() << "sweep outran the shutdown";
  ASSERT_LT(partial.trials, kTrials);
  EXPECT_LE(partial.successes, partial.trials);
  EXPECT_EQ(partial.outcomes.size(), partial.trials);
  EXPECT_EQ(partial.trials % kBatch, 0u) << "mid-chunk tear";

  McConfig full_config = config;
  full_config.pool = nullptr;
  full_config.parallel = false;
  const McResult full =
      run_aggregate_mc(lesk_factory(), AdversarySpec{}, 256, full_config);
  ASSERT_FALSE(full.interrupted);
  ASSERT_EQ(full.outcomes.size(), kTrials);
  // The partial outcomes are whole chunks in trial order; match them
  // greedily against the full run's chunk sequence.
  std::size_t matched = 0;
  for (std::size_t chunk = 0; chunk * kBatch < kTrials; ++chunk) {
    if (matched >= partial.outcomes.size()) break;
    bool equal = true;
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (!outcome_equal(partial.outcomes[matched + i],
                         full.outcomes[chunk * kBatch + i])) {
        equal = false;
        break;
      }
    }
    if (equal) matched += kBatch;
  }
  EXPECT_EQ(matched, partial.outcomes.size())
      << "some completed chunk matches no chunk of the full run";
}

TEST(ParallelMc, OrchestrationMetricsRollUp) {
  if constexpr (!obs::kObsCompiledIn) {
    GTEST_SKIP() << "JAMELECT_OBS compiled out";
  }
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.reset();
  reg.set_enabled(true);
  ThreadPool pool(3);
  (void)run_aggregate_mc(lesk_factory(), saturating(), 256,
                         orchestrated(&pool));
  const auto snap = reg.aggregate();
  reg.set_enabled(was_enabled);
  // 20 trials in chunks of 7 -> 3 chunk work items.
  ASSERT_TRUE(snap.counters.count("mc.parallel_chunks"));
  EXPECT_EQ(snap.counters.at("mc.parallel_chunks"), 3);
  // Per-worker workspaces are registered even when reuse is zero.
  EXPECT_TRUE(snap.counters.count("mc.parallel_cache_reuse"));
  // Effective width gauge: 3 workers + the participating caller.
  ASSERT_TRUE(snap.gauges.count("mc.parallel_width"));
  EXPECT_EQ(snap.gauges.at("mc.parallel_width"), 4.0);
}

}  // namespace
}  // namespace jamelect
