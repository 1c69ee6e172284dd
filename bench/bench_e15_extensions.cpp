// E15 (extension experiments) — the §4 building-block applications:
//   * size approximation: accuracy of the LESK-walk estimator across n
//     and adversaries (|median-u − log2 n| should stay within a few
//     units; the budget needed is ~2*a*log2(n) slots);
//   * k-selection: slots for k distinct leaders; with warm start the
//     marginal cost per extra leader collapses to O(1) expected regular
//     slots (the ablation the k_selection header calls out).
#include "bench_common.hpp"

#include <limits>

#include "extensions/k_selection.hpp"
#include "extensions/size_approximation.hpp"
#include "sim/aggregate.hpp"

namespace jamelect::bench {
namespace {

// The two series in this binary measure different quantities, but the
// CSV reporter aborts unless every run carries the same counter set —
// each family pads the other's columns with NaN ("not applicable").
constexpr double kNotApplicable = std::numeric_limits<double>::quiet_NaN();

void E15_SizeApproximation(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const int jam = static_cast<int>(state.range(1));
  const double eps = 0.5;
  const double log2n = std::log2(static_cast<double>(n));
  const auto budget = static_cast<std::int64_t>(64.0 * (log2n + 8.0));
  const std::size_t kTrials = trials(20);

  double abs_err_sum = 0.0, worst = 0.0;
  for (auto _ : state) {
    const auto errors = per_trial(0xE15, kTrials, [&](Rng rng) {
      SizeApproximation approx({eps, budget});
      AdversarySpec spec = adversary(jam ? "saturating" : "none", 64, eps);
      spec.n = n;
      auto adv = make_adversary(spec, rng.child(1));
      Rng sim = rng.child(2);
      (void)run_aggregate(approx, *adv, {n, budget}, sim);
      return std::abs(approx.estimate_log2n() - log2n);
    });
    for (const double err : errors) {
      abs_err_sum += err;
      worst = std::max(worst, err);
    }
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["budget_slots"] = static_cast<double>(budget);
  state.counters["mean_abs_err_log2"] = abs_err_sum / static_cast<double>(kTrials);
  state.counters["worst_abs_err_log2"] = worst;
  state.counters["k"] = kNotApplicable;
  state.counters["slots_mean"] = kNotApplicable;
  state.counters["first_round_mean"] = kNotApplicable;
  state.counters["later_round_mean"] = kNotApplicable;
  state.SetLabel(jam ? "jammed" : "clean");
}

void E15_KSelection(benchmark::State& state) {
  const auto k = static_cast<std::uint64_t>(state.range(0));
  const int warm = static_cast<int>(state.range(1));
  const std::uint64_t n = 1024;
  const std::size_t kTrials = trials(20);

  double slots_sum = 0.0, first_round = 0.0, later_rounds = 0.0;
  std::size_t later_count = 0;
  for (auto _ : state) {
    const auto results = per_trial(0xE15C, kTrials, [&](Rng rng) {
      KSelectionParams params;
      params.n = n;
      params.k = k;
      params.eps = 0.5;
      params.warm_start = warm != 0;
      AdversarySpec spec = adversary("saturating", 64, 0.5);
      spec.n = n;
      auto adv = make_adversary(spec, rng.child(1));
      Rng sim = rng.child(2);
      return run_k_selection(params, *adv, sim);
    });
    for (const KSelectionResult& res : results) {
      slots_sum += static_cast<double>(res.slots);
      if (!res.slots_per_round.empty()) {
        first_round += static_cast<double>(res.slots_per_round.front());
        for (std::size_t i = 1; i < res.slots_per_round.size(); ++i) {
          later_rounds += static_cast<double>(res.slots_per_round[i]);
          ++later_count;
        }
      }
    }
  }
  const auto td = static_cast<double>(kTrials);
  state.counters["k"] = static_cast<double>(k);
  state.counters["slots_mean"] = slots_sum / td;
  state.counters["first_round_mean"] = first_round / td;
  state.counters["later_round_mean"] =
      later_count > 0 ? later_rounds / static_cast<double>(later_count) : 0.0;
  state.counters["n"] = static_cast<double>(n);
  state.counters["budget_slots"] = kNotApplicable;
  state.counters["mean_abs_err_log2"] = kNotApplicable;
  state.counters["worst_abs_err_log2"] = kNotApplicable;
  state.SetLabel(warm ? "warm_start" : "cold_start");
}

BENCHMARK(E15_SizeApproximation)
    ->ArgsProduct({{8, 12, 16, 20}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(E15_KSelection)
    ->ArgsProduct({{1, 4, 16, 64}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace jamelect::bench

JAMELECT_BENCH_MAIN();
