// E11 — the slot taxonomy behind Theorem 2.6's proof (Lemmas 2.2-2.5):
// classify real LESK traces into IS/IC/CS/CC/E/R and check the measured
// fractions against the per-slot ceilings (IS <= 1/a^2, IC <= 1/a) and
// the counter relations (CS <= (IC+E)/a, CC <= a*IS + a*u0).
#include "bench_common.hpp"

#include "analysis/slot_taxonomy.hpp"
#include "sim/aggregate.hpp"

namespace jamelect::bench {
namespace {

void E11_SlotTaxonomy(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const int policy = static_cast<int>(state.range(1));
  const double eps = 0.5;
  // Index 6 = saturating with a huge T: its initial burst pushes u far
  // above u0, which is the only regime where IC/CS slots occur.
  const bool burst = policy == 6;
  const std::string policy_str = burst ? "saturating" : policy_name(policy);
  const std::int64_t T = burst ? 4096 : 64;
  const std::size_t kTrials = trials(20);

  struct TrialTaxonomy {
    TaxonomyCounts counts;
    bool holds = false;
  };
  TaxonomyCounts agg;
  bool relations_hold = true;
  for (auto _ : state) {
    const auto classified = per_trial(0xE11, kTrials, [&](Rng rng) {
      Lesk lesk(eps);
      AdversarySpec spec = adversary(policy_str, T, eps);
      spec.n = n;
      auto adv = make_adversary(spec, rng.child(1));
      Rng sim = rng.child(2);
      Trace trace;
      (void)run_aggregate(lesk, *adv, {n, 1 << 22}, sim, &trace);
      const auto counts = classify_trace(trace, n, eps);
      return TrialTaxonomy{counts, lemma23_bounds(counts, n, eps).holds()};
    });
    for (const auto& [counts, holds] : classified) {
      relations_hold = relations_hold && holds;
      agg.regular += counts.regular;
      agg.irregular_silence += counts.irregular_silence;
      agg.irregular_collision += counts.irregular_collision;
      agg.correcting_silence += counts.correcting_silence;
      agg.correcting_collision += counts.correcting_collision;
      agg.jammed += counts.jammed;
      agg.single += counts.single;
    }
  }
  const double total = static_cast<double>(agg.total());
  const double a = 8.0 / eps;
  state.counters["n"] = static_cast<double>(n);
  state.counters["frac_regular"] = static_cast<double>(agg.regular) / total;
  state.counters["frac_IS"] = static_cast<double>(agg.irregular_silence) / total;
  state.counters["frac_IC"] = static_cast<double>(agg.irregular_collision) / total;
  state.counters["frac_CS"] = static_cast<double>(agg.correcting_silence) / total;
  state.counters["frac_CC"] = static_cast<double>(agg.correcting_collision) / total;
  state.counters["frac_E"] = static_cast<double>(agg.jammed) / total;
  state.counters["IS_ceiling"] = 1.0 / (a * a);
  state.counters["IC_ceiling"] = 1.0 / a;
  state.counters["lemma23_holds"] = relations_hold ? 1.0 : 0.0;
  state.SetLabel("adv=" + policy_str + (burst ? "_T4096" : ""));
}

BENCHMARK(E11_SlotTaxonomy)
    ->ArgsProduct({{8, 12, 16}, {0, 1, 3, 5, 6}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace jamelect::bench

JAMELECT_BENCH_MAIN();
