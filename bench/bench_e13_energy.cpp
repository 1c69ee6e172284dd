// E13 — energy (transmissions per station). The paper does not analyze
// energy but conjectures parity with [3] (§1.3); this bench measures
// mean per-station transmissions for LESK, LEWK and ARSS across n.
// LESK's expected energy is tiny: the per-slot probability is ~2^-u,
// so total transmissions are dominated by the startup ramp.
#include "bench_common.hpp"

#include "baselines/arss.hpp"

namespace jamelect::bench {
namespace {

constexpr std::int64_t kT = 64;
constexpr double kEps = 0.5;

void E13_LeskEnergy(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const int jam = static_cast<int>(state.range(1));
  AdversarySpec adv = adversary(jam ? "saturating" : "none", kT, kEps);
  const auto cfg = mc(0xE13, 1 << 22);
  McResult res;
  for (auto _ : state) res = run_aggregate_mc(lesk_factory(kEps), adv, n, cfg);
  report(state, res);
  state.counters["n"] = static_cast<double>(n);
  state.SetLabel(jam ? "jammed" : "clean");
}

void E13_LewkEnergy(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const int jam = static_cast<int>(state.range(1));
  AdversarySpec adv = adversary(jam ? "saturating" : "none", kT, kEps);
  const auto cfg = mc(0xE13, 1 << 23);
  McResult res;
  for (auto _ : state) res = run_hybrid_mc(lesk_factory(kEps), adv, n, cfg);
  report(state, res);
  state.counters["n"] = static_cast<double>(n);
  state.SetLabel(jam ? "jammed" : "clean");
}

void E13_ArssEnergy(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const int jam = static_cast<int>(state.range(1));
  AdversarySpec adv = adversary(jam ? "saturating" : "none", kT, kEps);
  McConfig cfg = mc(0xE13, 1 << 19, 5);
  cfg.batch = 4;  // station lanes (sim/station_batch.hpp); bit-identical
  const double gamma = arss_gamma(n, kT);
  McResult res;
  for (auto _ : state) {
    res = run_station_mc(
        [gamma](StationId) -> StationProtocolPtr {
          ArssParams params;
          params.gamma = gamma;
          return std::make_unique<ArssStation>(params);
        },
        adv, n, {CdMode::kStrong, StopRule::kAllDone, cfg.max_slots}, cfg);
  }
  report(state, res);
  state.counters["n"] = static_cast<double>(n);
  state.SetLabel(jam ? "jammed" : "clean");
}

BENCHMARK(E13_LeskEnergy)->ArgsProduct({{6, 10, 14, 18}, {0, 1}})->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(E13_LewkEnergy)->ArgsProduct({{6, 10, 14}, {0, 1}})->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(E13_ArssEnergy)->ArgsProduct({{6, 8, 10}, {0, 1}})->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace jamelect::bench

JAMELECT_BENCH_MAIN();
