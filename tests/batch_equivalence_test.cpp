// The batched SoA engine (sim/batch.hpp, McConfig::batch) must return
// bit-identical per-trial TrialOutcomes to the sequential Monte-Carlo
// path for the same seed — for every kernelizable protocol, both CD
// modes (strong-CD aggregate, weak-CD hybrid Notification), any chunk
// size, and parallel on or off. These tests enforce exactly that, plus
// the silent fallback for non-kernelizable factories.
#include "sim/batch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/arss.hpp"
#include "protocols/estimation.hpp"
#include "protocols/lesk.hpp"
#include "protocols/lesu.hpp"
#include "protocols/plain_uniform.hpp"
#include "sim/montecarlo.hpp"
#include "support/thread_pool.hpp"

namespace jamelect {
namespace {

void expect_outcome_eq(const TrialOutcome& a, const TrialOutcome& b,
                       std::size_t trial) {
  ASSERT_EQ(a.elected, b.elected) << "trial " << trial;
  ASSERT_EQ(a.slots, b.slots) << "trial " << trial;
  ASSERT_EQ(a.jams, b.jams) << "trial " << trial;
  ASSERT_EQ(a.nulls, b.nulls) << "trial " << trial;
  ASSERT_EQ(a.singles, b.singles) << "trial " << trial;
  ASSERT_EQ(a.collisions, b.collisions) << "trial " << trial;
  // Bit-identity, not approximate: the batch engine replays the exact
  // double arithmetic of the sequential path.
  ASSERT_EQ(a.transmissions, b.transmissions) << "trial " << trial;
  ASSERT_EQ(a.all_done, b.all_done) << "trial " << trial;
  ASSERT_EQ(a.unique_leader, b.unique_leader) << "trial " << trial;
  ASSERT_EQ(a.leader, b.leader) << "trial " << trial;
}

void expect_all_outcomes_eq(const McResult& a, const McResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t t = 0; t < a.outcomes.size(); ++t) {
    expect_outcome_eq(a.outcomes[t], b.outcomes[t], t);
  }
}

[[nodiscard]] McConfig base_config(std::size_t trials, std::uint64_t seed,
                                   std::int64_t max_slots) {
  McConfig config;
  config.trials = trials;
  config.seed = seed;
  config.max_slots = max_slots;
  config.parallel = false;
  config.keep_outcomes = true;
  return config;
}

struct Scenario {
  UniformProtocolFactory factory;
  AdversarySpec adversary;
  std::uint64_t n;
};

[[nodiscard]] std::vector<Scenario> scenarios() {
  std::vector<Scenario> list;
  {
    AdversarySpec none;
    none.policy = "none";
    list.push_back({[] { return std::make_unique<Lesk>(LeskParams{0.5, 0.0}); },
                    none, 64});
  }
  {
    AdversarySpec sat;
    sat.policy = "saturating";
    sat.T = 32;
    sat.eps = 0.5;
    list.push_back(
        {[] { return std::make_unique<Lesk>(LeskParams{0.25, 0.0}); }, sat,
         1024});
  }
  {
    AdversarySpec bern;
    bern.policy = "bernoulli";
    bern.T = 64;
    bern.eps = 0.25;
    list.push_back({[] { return std::make_unique<Lesu>(LesuParams{}); }, bern,
                    256});
  }
  {
    AdversarySpec per;
    per.policy = "periodic";
    per.T = 16;
    per.eps = 0.5;
    list.push_back({[] { return std::make_unique<PlainUniform>(6.0); }, per,
                    64});
  }
  return list;
}

TEST(BatchEquivalence, AggregateBitIdenticalAcrossChunkSizes) {
  for (const Scenario& sc : scenarios()) {
    const McConfig seq = base_config(37, 0xfeedULL, 20000);
    const McResult reference =
        run_aggregate_mc(sc.factory, sc.adversary, sc.n, seq);
    ASSERT_EQ(reference.outcomes.size(), seq.trials);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{5},
                                    std::size_t{7}, std::size_t{64}}) {
      McConfig cfg = seq;
      cfg.batch = batch;
      const McResult batched =
          run_aggregate_mc(sc.factory, sc.adversary, sc.n, cfg);
      expect_all_outcomes_eq(reference, batched);
    }
  }
}

TEST(BatchEquivalence, HybridBitIdenticalAcrossChunkSizes) {
  for (const Scenario& sc : scenarios()) {
    if (sc.n < 3) continue;
    const McConfig seq = base_config(23, 0xabcdULL, 30000);
    const McResult reference =
        run_hybrid_mc(sc.factory, sc.adversary, sc.n, seq);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{6},
                                    std::size_t{23}, std::size_t{64}}) {
      McConfig cfg = seq;
      cfg.batch = batch;
      const McResult batched =
          run_hybrid_mc(sc.factory, sc.adversary, sc.n, cfg);
      expect_all_outcomes_eq(reference, batched);
    }
  }
}

TEST(BatchEquivalence, ParallelSchedulingDoesNotChangeOutcomes) {
  const Scenario sc = scenarios()[1];  // LESK vs saturating at n = 1024
  const McConfig seq = base_config(48, 0x77ULL, 20000);
  const McResult reference =
      run_aggregate_mc(sc.factory, sc.adversary, sc.n, seq);
  McConfig cfg = seq;
  cfg.batch = 16;
  cfg.parallel = true;
  const McResult batched =
      run_aggregate_mc(sc.factory, sc.adversary, sc.n, cfg);
  expect_all_outcomes_eq(reference, batched);
}

TEST(BatchEquivalence, StreamingSummariesMatchSequential) {
  // keep_outcomes == false exercises the accumulator fold; with a
  // single thread the fold order matches the sequential path exactly,
  // so every summary field must be equal to the last bit.
  const Scenario sc = scenarios()[0];
  McConfig seq = base_config(64, 0x1234ULL, 20000);
  seq.keep_outcomes = false;
  const McResult reference =
      run_aggregate_mc(sc.factory, sc.adversary, sc.n, seq);
  McConfig cfg = seq;
  cfg.batch = 8;
  const McResult batched =
      run_aggregate_mc(sc.factory, sc.adversary, sc.n, cfg);
  EXPECT_EQ(reference.successes, batched.successes);
  EXPECT_EQ(reference.slots.mean, batched.slots.mean);
  EXPECT_EQ(reference.slots.max, batched.slots.max);
  EXPECT_EQ(reference.jams.mean, batched.jams.mean);
  EXPECT_EQ(reference.energy_per_station.mean,
            batched.energy_per_station.mean);
  EXPECT_TRUE(reference.outcomes.empty());
  EXPECT_TRUE(batched.outcomes.empty());
}

/// The streaming summary fields the figure benches report (and the
/// service serializes), compared to the last bit.
void expect_summaries_eq(const McResult& a, const McResult& b,
                         const std::string& where) {
  EXPECT_EQ(a.trials, b.trials) << where;
  EXPECT_EQ(a.slots.mean, b.slots.mean) << where;
  EXPECT_EQ(a.slots.median, b.slots.median) << where;
  EXPECT_EQ(a.slots.p95, b.slots.p95) << where;
  EXPECT_EQ(a.slots.p99, b.slots.p99) << where;
  EXPECT_EQ(a.success.rate, b.success.rate) << where;
  EXPECT_EQ(a.success.lower, b.success.lower) << where;
  EXPECT_EQ(a.jams.mean, b.jams.mean) << where;
  EXPECT_EQ(a.energy_per_station.mean, b.energy_per_station.mean) << where;
}

/// Runs `run` sequentially (batch 0, no pool) and then at every chunk
/// size in {1, 4, 5, 8, 64} on pools of 1 and 3 workers, all streaming
/// (keep_outcomes == false), and expects identical summaries. 37 trials
/// is a multiple of none of the chunk sizes above 1.
void expect_streaming_summaries_chunk_invariant(
    const std::function<McResult(const McConfig&)>& run,
    const std::string& what) {
  McConfig seq = base_config(37, 0x5eedULL, 30000);
  seq.keep_outcomes = false;
  const McResult reference = run(seq);
  ASSERT_EQ(reference.trials, seq.trials) << what;
  ThreadPool pool1(1);
  ThreadPool pool3(3);
  for (const std::size_t batch : {1u, 4u, 5u, 8u, 64u}) {
    for (ThreadPool* pool : {&pool1, &pool3}) {
      McConfig cfg = seq;
      cfg.batch = batch;
      cfg.parallel = true;
      cfg.pool = pool;
      const McResult batched = run(cfg);
      EXPECT_TRUE(batched.outcomes.empty());
      expect_summaries_eq(reference, batched,
                          what + " batch=" + std::to_string(batch) +
                              " pool=" + std::to_string(pool->size()));
    }
  }
}

TEST(BatchEquivalence, StreamingSummariesAcrossChunkSizesAndPools) {
  // The bench counters come from streaming summaries at a chunk size
  // fitted to the pool width, so those summaries must not depend on
  // the chunk partition or on which worker folded which chunk.
  for (const Scenario& sc : scenarios()) {
    expect_streaming_summaries_chunk_invariant(
        [&](const McConfig& cfg) {
          return run_aggregate_mc(sc.factory, sc.adversary, sc.n, cfg);
        },
        "aggregate " + sc.adversary.policy);
    expect_streaming_summaries_chunk_invariant(
        [&](const McConfig& cfg) {
          return run_hybrid_mc(sc.factory, sc.adversary, sc.n, cfg);
        },
        "hybrid " + sc.adversary.policy);
  }
  AdversarySpec sat;
  sat.policy = "saturating";
  sat.T = 32;
  sat.eps = 0.5;
  constexpr std::uint64_t kStations = 24;
  ArssParams params;
  params.gamma = arss_gamma(kStations, 16);
  const EngineConfig engine{CdMode::kStrong, StopRule::kAllDone, 30000};
  expect_streaming_summaries_chunk_invariant(
      [&](const McConfig& cfg) {
        return run_station_mc(
            [params](StationId) -> StationProtocolPtr {
              return std::make_unique<ArssStation>(params);
            },
            sat, kStations, engine, cfg);
      },
      "station arss saturating");
}

TEST(BatchEquivalence, NonKernelizableFactoryFallsBack) {
  // Estimation has no kernel twin: batch > 0 must silently take the
  // sequential path and produce the identical result.
  const UniformProtocolFactory factory = [] {
    return std::make_unique<Estimation>(2);
  };
  AdversarySpec none;
  none.policy = "none";
  const McConfig seq = base_config(16, 0x9ULL, 5000);
  const McResult reference = run_aggregate_mc(factory, none, 64, seq);
  McConfig cfg = seq;
  cfg.batch = 32;
  const McResult batched = run_aggregate_mc(factory, none, 64, cfg);
  expect_all_outcomes_eq(reference, batched);
}

TEST(BatchEquivalence, WarmStartedFactoryFallsBack) {
  // A pure factory producing warm-started instances is recognized as
  // non-fresh and routed to the virtual path — outcomes must still be
  // identical to batch == 0.
  const UniformProtocolFactory factory = [] {
    auto p = std::make_unique<Lesk>(LeskParams{0.5, 0.0});
    p->observe(ChannelState::kCollision);
    return p;
  };
  AdversarySpec sat;
  sat.policy = "saturating";
  sat.T = 32;
  sat.eps = 0.5;
  const McConfig seq = base_config(16, 0x31ULL, 10000);
  const McResult reference = run_aggregate_mc(factory, sat, 128, seq);
  McConfig cfg = seq;
  cfg.batch = 8;
  const McResult batched = run_aggregate_mc(factory, sat, 128, cfg);
  expect_all_outcomes_eq(reference, batched);
}

TEST(BatchEquivalence, TrialCountNotMultipleOfBatch) {
  const Scenario sc = scenarios()[0];
  const McConfig seq = base_config(13, 0x55ULL, 20000);
  const McResult reference =
      run_aggregate_mc(sc.factory, sc.adversary, sc.n, seq);
  McConfig cfg = seq;
  cfg.batch = 64;  // single partial chunk
  const McResult batched =
      run_aggregate_mc(sc.factory, sc.adversary, sc.n, cfg);
  expect_all_outcomes_eq(reference, batched);
}

TEST(BatchEquivalence, DirectChunkApiMatchesSweepSlicing) {
  // run_batch_aggregate_trials(first, count) must reproduce the same
  // trials regardless of how the sweep is sliced into chunks.
  const BatchKernelSpec spec{LeskParams{0.5, 0.0}};
  AdversarySpec sat;
  sat.policy = "saturating";
  sat.T = 16;
  sat.eps = 0.5;
  const BatchConfig config{256, 20000};
  const Rng base(0x51ceULL);
  std::vector<TrialOutcome> whole(20);
  run_batch_aggregate_trials(spec, sat, config, base, 0, 20, whole.data());
  std::vector<TrialOutcome> parts(20);
  run_batch_aggregate_trials(spec, sat, config, base, 0, 3, parts.data());
  run_batch_aggregate_trials(spec, sat, config, base, 3, 9, parts.data() + 3);
  run_batch_aggregate_trials(spec, sat, config, base, 12, 8,
                             parts.data() + 12);
  for (std::size_t t = 0; t < whole.size(); ++t) {
    expect_outcome_eq(whole[t], parts[t], t);
  }
}

}  // namespace
}  // namespace jamelect
