// Cooperative shutdown: the flag itself, the signal handlers, and the
// Monte-Carlo drivers' drain behaviour (a shutdown mid-sweep yields a
// consistent partial McResult flagged `interrupted`, never a torn one).
//
// Every test restores the flag with clear_shutdown() — the flag is
// process-global, and a leaked set would silently truncate every later
// MC test in this binary.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <memory>
#include <thread>

#include "obs/span.hpp"
#include "protocols/lesk.hpp"
#include "sim/montecarlo.hpp"
#include "support/shutdown.hpp"

namespace jamelect {
namespace {

class ShutdownGuard {
 public:
  ShutdownGuard() { clear_shutdown(); }
  ~ShutdownGuard() { clear_shutdown(); }
};

McConfig small_config(std::size_t trials) {
  McConfig config;
  config.trials = trials;
  config.seed = 7;
  config.max_slots = 10'000;
  config.parallel = false;
  return config;
}

UniformProtocolFactory lesk_factory() {
  return [] { return std::make_unique<Lesk>(0.5); };
}

TEST(Shutdown, FlagRoundTrip) {
  const ShutdownGuard guard;
  EXPECT_FALSE(shutdown_requested());
  request_shutdown();
  EXPECT_TRUE(shutdown_requested());
  EXPECT_EQ(shutdown_signal(), 0);  // programmatic
  clear_shutdown();
  EXPECT_FALSE(shutdown_requested());
}

TEST(Shutdown, HandlerSetsFlagOnSigint) {
  const ShutdownGuard guard;
  ASSERT_TRUE(install_shutdown_handlers());
  ASSERT_FALSE(shutdown_requested());
  ASSERT_EQ(std::raise(SIGINT), 0);
  EXPECT_TRUE(shutdown_requested());
  EXPECT_EQ(shutdown_signal(), SIGINT);
}

TEST(Shutdown, PresetFlagYieldsZeroTrialInterruptedResult) {
  const ShutdownGuard guard;
  request_shutdown();
  const McResult result =
      run_aggregate_mc(lesk_factory(), AdversarySpec{}, 64, small_config(32));
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.trials, 0u);
  EXPECT_EQ(result.successes, 0u);
}

TEST(Shutdown, MidRunDrainKeepsCompletedTrialsConsistent) {
  const ShutdownGuard guard;
  // Race a shutdown request against a long sequential sweep: however
  // many trials completed, the partial result must be self-consistent
  // and each outcome identical to the same trial of an uninterrupted
  // run (per-trial determinism: trial k seeds from mix64(seed, k)).
  McConfig config = small_config(20'000);
  config.keep_outcomes = true;
  // The shutdown lands once a first trial has completed (each
  // sequential trial records one mc.trial span), not on a timer: a
  // slow build may spend any fixed delay before its first trial.
  obs::SpanStore spans;
  config.spans = &spans;
  std::atomic<bool> finished{false};
  std::thread killer([&spans, &finished] {
    while (spans.pushed() == 0 && !finished.load()) {
      std::this_thread::yield();
    }
    request_shutdown();
  });
  const McResult partial =
      run_aggregate_mc(lesk_factory(), AdversarySpec{}, 256, config);
  finished.store(true);
  killer.join();
  clear_shutdown();

  ASSERT_TRUE(partial.interrupted);
  ASSERT_LT(partial.trials, 20'000u) << "shutdown landed after the sweep";
  ASSERT_GT(partial.trials, 0u) << "shutdown landed before the sweep";
  EXPECT_EQ(partial.outcomes.size(), partial.trials);
  EXPECT_LE(partial.successes, partial.trials);

  McConfig full_config = small_config(partial.trials);
  full_config.keep_outcomes = true;
  const McResult full =
      run_aggregate_mc(lesk_factory(), AdversarySpec{}, 256, full_config);
  ASSERT_FALSE(full.interrupted);
  ASSERT_EQ(full.outcomes.size(), partial.outcomes.size());
  for (std::size_t k = 0; k < full.outcomes.size(); ++k) {
    EXPECT_EQ(full.outcomes[k].elected, partial.outcomes[k].elected);
    EXPECT_EQ(full.outcomes[k].slots, partial.outcomes[k].slots);
    EXPECT_EQ(full.outcomes[k].jams, partial.outcomes[k].jams);
  }
}

TEST(Shutdown, BatchedParallelDrainIsChunkAligned) {
  const ShutdownGuard guard;
  McConfig config = small_config(50'000);
  config.parallel = true;
  config.batch = 64;
  std::thread killer([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    request_shutdown();
  });
  const McResult partial =
      run_aggregate_mc(lesk_factory(), AdversarySpec{}, 256, config);
  killer.join();
  clear_shutdown();
  if (!partial.interrupted) GTEST_SKIP() << "sweep outran the shutdown";
  EXPECT_LT(partial.trials, 50'000u);
  EXPECT_LE(partial.successes, partial.trials);
  // Chunks are all-or-nothing: the completed count is a sum of whole
  // chunks (each `batch` trials, final one 50000 % 64 = 16), never a
  // mid-chunk tear.
  EXPECT_TRUE(partial.trials % 64 == 0 || partial.trials % 64 == 16)
      << partial.trials;
}

TEST(Shutdown, UninterruptedRunIsNotFlagged) {
  const ShutdownGuard guard;
  const McResult result =
      run_aggregate_mc(lesk_factory(), AdversarySpec{}, 64, small_config(32));
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.trials, 32u);
}

}  // namespace
}  // namespace jamelect
