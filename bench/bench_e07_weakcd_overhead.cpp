// E7 — Lemma 3.1 / Theorems 3.2-3.3: the Notification transform turns a
// weak-CD selection-resolution into full weak-CD leader election at a
// CONSTANT factor. Sweep n; `weak_over_strong` (LEWK/LESK and
// LEWU/LESU slot ratios) should stay bounded as n grows.
#include "bench_common.hpp"

namespace jamelect::bench {
namespace {

void E07_WeakCdOverhead(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const int stack = static_cast<int>(state.range(1));  // 0 LESK/LEWK, 1 LESU/LEWU
  const int jam = static_cast<int>(state.range(2));
  const double eps = 0.5;
  AdversarySpec adv = adversary(jam ? "saturating" : "none", 64, eps);
  const auto cfg = mc(0xE07, 1 << 24);

  const UniformProtocolFactory inner =
      stack == 0 ? lesk_factory(eps) : lesu_factory();
  McResult strong, weak;
  for (auto _ : state) {
    strong = run_aggregate_mc(inner, adv, n, cfg);
    weak = run_hybrid_mc(inner, adv, n, cfg);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["strong_slots"] = strong.slots.mean;
  state.counters["weak_slots"] = weak.slots.mean;
  state.counters["weak_over_strong"] = weak.slots.mean / strong.slots.mean;
  state.counters["weak_success"] = weak.success.rate;
  state.SetLabel(std::string(stack == 0 ? "LESK->LEWK" : "LESU->LEWU") +
                 (jam ? " jammed" : " clean"));
}

BENCHMARK(E07_WeakCdOverhead)
    ->ArgsProduct({{4, 6, 8, 10, 12, 14}, {0, 1}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace jamelect::bench

JAMELECT_BENCH_MAIN();
