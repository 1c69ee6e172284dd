#include "sim/montecarlo.hpp"

#include <gtest/gtest.h>

#include "support/expects.hpp"

#include <memory>
#include <string>

#include "obs/span.hpp"
#include "protocols/lesk.hpp"
#include "protocols/uniform_station.hpp"

namespace jamelect {
namespace {

UniformProtocolFactory lesk_factory() {
  return [] { return std::make_unique<Lesk>(0.5); };
}

TEST(MonteCarlo, AggregatesAllTrials) {
  McConfig c;
  c.trials = 50;
  c.seed = 5;
  c.max_slots = 100000;
  c.keep_outcomes = true;
  const auto res = run_aggregate_mc(lesk_factory(), AdversarySpec{}, 64, c);
  EXPECT_EQ(res.trials, 50u);
  EXPECT_EQ(res.successes, 50u);
  EXPECT_EQ(res.outcomes.size(), 50u);
  EXPECT_DOUBLE_EQ(res.success.rate, 1.0);
  EXPECT_GT(res.slots.mean, 0.0);
  EXPECT_GT(res.energy_per_station.mean, 0.0);
  EXPECT_EQ(res.slots_on_success.count, 50u);
}

TEST(MonteCarlo, ParallelAndSerialAgreeExactly) {
  McConfig par;
  par.trials = 40;
  par.seed = 9;
  par.max_slots = 100000;
  par.keep_outcomes = true;
  McConfig ser = par;
  ser.parallel = false;
  const auto a = run_aggregate_mc(lesk_factory(), AdversarySpec{}, 128, par);
  const auto b = run_aggregate_mc(lesk_factory(), AdversarySpec{}, 128, ser);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t k = 0; k < a.outcomes.size(); ++k) {
    ASSERT_EQ(a.outcomes[k].slots, b.outcomes[k].slots) << k;
    ASSERT_EQ(a.outcomes[k].nulls, b.outcomes[k].nulls) << k;
  }
}

TEST(MonteCarlo, SeedChangesResults) {
  McConfig c;
  c.trials = 10;
  c.seed = 1;
  c.max_slots = 100000;
  c.keep_outcomes = true;
  const auto a = run_aggregate_mc(lesk_factory(), AdversarySpec{}, 128, c);
  c.seed = 2;
  const auto b = run_aggregate_mc(lesk_factory(), AdversarySpec{}, 128, c);
  bool any_diff = false;
  for (std::size_t k = 0; k < 10; ++k) {
    any_diff |= a.outcomes[k].slots != b.outcomes[k].slots;
  }
  EXPECT_TRUE(any_diff);
}

TEST(MonteCarlo, FailuresAreCensored) {
  McConfig c;
  c.trials = 8;
  c.seed = 3;
  c.max_slots = 2;  // hopeless for n = 4096
  const auto res = run_aggregate_mc(lesk_factory(), AdversarySpec{}, 4096, c);
  EXPECT_EQ(res.successes, 0u);
  EXPECT_DOUBLE_EQ(res.slots.mean, 2.0);
  EXPECT_EQ(res.slots_on_success.count, 0u);
  EXPECT_LT(res.success.upper, 0.5);
}

TEST(MonteCarlo, StationRunnerValidatesElection) {
  McConfig c;
  c.trials = 10;
  c.seed = 7;
  c.max_slots = 100000;
  c.keep_outcomes = true;
  const auto res = run_station_mc(
      [](StationId) -> StationProtocolPtr {
        return std::make_unique<UniformStationAdapter>(
            std::make_unique<Lesk>(0.5));
      },
      AdversarySpec{}, 16, {CdMode::kStrong, StopRule::kAllDone, 100000}, c);
  EXPECT_EQ(res.successes, 10u);
  for (const auto& o : res.outcomes) {
    EXPECT_TRUE(o.unique_leader);
    EXPECT_TRUE(o.all_done);
    EXPECT_TRUE(o.leader.has_value());
  }
}

TEST(MonteCarlo, StreamingMatchesMaterializedSummaries) {
  McConfig keep;
  keep.trials = 60;
  keep.seed = 13;
  keep.max_slots = 100000;
  keep.keep_outcomes = true;
  McConfig stream = keep;
  stream.keep_outcomes = false;
  const auto a = run_aggregate_mc(lesk_factory(), AdversarySpec{}, 64, keep);
  const auto b = run_aggregate_mc(lesk_factory(), AdversarySpec{}, 64, stream);
  EXPECT_TRUE(b.outcomes.empty());
  EXPECT_EQ(a.successes, b.successes);
  // Same multiset of per-trial values, so type-7 quantiles agree
  // exactly; means use different (both exact) summation orders.
  EXPECT_DOUBLE_EQ(a.slots.median, b.slots.median);
  EXPECT_DOUBLE_EQ(a.slots.p95, b.slots.p95);
  EXPECT_DOUBLE_EQ(a.slots.min, b.slots.min);
  EXPECT_DOUBLE_EQ(a.slots.max, b.slots.max);
  EXPECT_NEAR(a.slots.mean, b.slots.mean, 1e-9 * (1.0 + a.slots.mean));
  EXPECT_NEAR(a.slots.stddev, b.slots.stddev, 1e-9 * (1.0 + a.slots.stddev));
  EXPECT_NEAR(a.jams.mean, b.jams.mean, 1e-9);
  EXPECT_NEAR(a.energy_per_station.mean, b.energy_per_station.mean,
              1e-9 * (1.0 + a.energy_per_station.mean));
  EXPECT_DOUBLE_EQ(a.slots_on_success.median, b.slots_on_success.median);
}

TEST(MonteCarlo, RejectsZeroTrials) {
  McConfig c;
  c.trials = 0;
  EXPECT_THROW((void)run_aggregate_mc(lesk_factory(), AdversarySpec{}, 4, c),
               ContractViolation);
}

TEST(MonteCarlo, UnknownPolicyThrows) {
  AdversarySpec bad;
  bad.policy = "quantum";
  McConfig c;
  c.trials = 1;
  EXPECT_THROW((void)run_aggregate_mc(lesk_factory(), bad, 4, c),
               std::invalid_argument);
}

TEST(MonteCarlo, RunPrintsNothingToStderr) {
  McConfig c;
  c.trials = 5;
  c.seed = 2;
  c.max_slots = 100000;
  ::testing::internal::CaptureStderr();
  (void)run_aggregate_mc(lesk_factory(), AdversarySpec{}, 16, c);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(MonteCarlo, SpanStoreCapturesOneSpanPerChunk) {
  McConfig c;
  c.trials = 12;
  c.seed = 33;
  c.max_slots = 100000;
  // Sequential trials are one-trial chunks: one "mc.trial" span each.
  obs::SpanStore sequential;
  c.spans = &sequential;
  const auto res = run_aggregate_mc(lesk_factory(), AdversarySpec{}, 32, c);
  EXPECT_EQ(res.trials, 12u);
  const auto trial_spans = sequential.snapshot();
  EXPECT_EQ(trial_spans.size(), 12u);
  for (const auto& rec : trial_spans) EXPECT_STREQ(rec.name, "mc.trial");

  // Batched: one "mc.batch" span per chunk of 5 (5 + 5 + 2 trials),
  // tagged with the run's trace id.
  obs::SpanStore batched;
  c.spans = &batched;
  c.batch = 5;
  c.trace = obs::TraceId::derive(33, 5);
  const auto batched_res =
      run_aggregate_mc(lesk_factory(), AdversarySpec{}, 32, c);
  EXPECT_EQ(batched_res.trials, 12u);
  const auto chunk_spans = batched.snapshot();
  EXPECT_EQ(chunk_spans.size(), 3u);
  for (const auto& rec : chunk_spans) {
    EXPECT_STREQ(rec.name, "mc.batch");
    EXPECT_EQ(rec.trace, c.trace);
  }
}

TEST(MonteCarlo, HybridRunnerWorks) {
  McConfig c;
  c.trials = 20;
  c.seed = 11;
  c.max_slots = 1 << 20;
  const auto res = run_hybrid_mc(lesk_factory(), AdversarySpec{}, 32, c);
  EXPECT_EQ(res.successes, 20u);
}

}  // namespace
}  // namespace jamelect
