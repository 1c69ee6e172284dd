// E4 — Lemma 2.8: Estimation(2) either yields a Single or returns i in
// [log log n - 1, max(log log n, log T) + 1], in O(max(log n, T)) slots.
// Sweep n x T; counters report the empirical in-range rate, the mean
// returned round, the Single short-circuit rate, and the slot cost.
#include "bench_common.hpp"

#include "channel/channel.hpp"
#include "protocols/estimation.hpp"
#include "support/math.hpp"

namespace jamelect::bench {
namespace {

struct EstimationTrial {
  bool single = false;
  bool completed = false;
  std::int64_t result = -1;
  std::int64_t slots = 0;
};

EstimationTrial run_estimation(std::uint64_t n, std::int64_t T, double eps,
                               Rng rng) {
  Estimation est(2);
  AdversarySpec spec = adversary(T > 1 ? "saturating" : "none", T, eps);
  spec.n = n;
  auto adv = make_adversary(spec, rng.child(1));
  Rng sim = rng.child(2);
  EstimationTrial trial;
  const std::int64_t budget = 1 << 24;
  while (!est.completed() && !est.elected() && trial.slots < budget) {
    const double p = est.transmit_probability();
    const bool jam = adv->step();
    const auto probs = slot_probabilities(n, p);
    const double r = sim.uniform();
    const std::uint64_t cnt =
        r < probs.null ? 0 : (r < probs.null + probs.single ? 1 : 2);
    const ChannelState st = resolve_slot(cnt, jam);
    est.observe(st);
    adv->observe({trial.slots, cnt, jam, st});
    ++trial.slots;
  }
  trial.single = est.elected();
  trial.completed = est.completed();
  if (trial.completed) trial.result = est.result();
  return trial;
}

void E04_EstimationAccuracy(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const auto T = static_cast<std::int64_t>(1) << state.range(1);
  const double eps = 0.5;
  const auto range = estimation_range(n, T);
  const std::size_t kTrials = trials(40);

  double in_range = 0, singles = 0, result_sum = 0, slots_sum = 0,
         completed = 0;
  for (auto _ : state) {
    const auto outcomes = per_trial(0xE04, kTrials, [&](Rng rng) {
      return run_estimation(n, T, eps, rng);
    });
    for (const EstimationTrial& t : outcomes) {
      slots_sum += static_cast<double>(t.slots);
      if (t.single) {
        ++singles;
        continue;
      }
      ++completed;
      result_sum += static_cast<double>(t.result);
      const double i = static_cast<double>(t.result);
      if (i >= range.lo && i <= range.hi) ++in_range;
    }
  }
  const double denom = std::max(1.0, completed);
  state.counters["n"] = static_cast<double>(n);
  state.counters["T"] = static_cast<double>(T);
  state.counters["range_lo"] = range.lo;
  state.counters["range_hi"] = range.hi;
  state.counters["result_mean"] = result_sum / denom;
  state.counters["in_range_rate"] = in_range / denom;
  state.counters["single_rate"] = singles / static_cast<double>(kTrials);
  state.counters["slots_mean"] = slots_sum / static_cast<double>(kTrials);
}

BENCHMARK(E04_EstimationAccuracy)
    ->ArgsProduct({{7, 10, 14, 18, 22}, {0, 8, 12}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace jamelect::bench

JAMELECT_BENCH_MAIN();
