// E8 — the paper's §1.3 comparison: LESK elects in O(log n) where the
// ARSS robust MAC of [3] needs O(log^4 n) (and classic estimation
// protocols are fast only when unjammed). One case per (n, protocol,
// adversary); who wins and by what growth rate is the series to read.
// ARSS is granted the true (n, T) for its gamma — a baseline-favourable
// substitution (DESIGN.md §5).
#include "bench_common.hpp"

#include <vector>

#include "baselines/arss.hpp"
#include "baselines/arss_flock.hpp"
#include "baselines/nakano_olariu.hpp"
#include "baselines/nocd_election.hpp"
#include "baselines/willard.hpp"

namespace jamelect::bench {
namespace {

constexpr std::int64_t kT = 64;
constexpr double kEps = 0.5;

void E08_Lesk(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const int jam = static_cast<int>(state.range(1));
  AdversarySpec adv = adversary(jam ? "saturating" : "none", kT, kEps);
  const McConfig cfg = mc(0xE08, 1 << 22);
  McResult res;
  for (auto _ : state) res = run_aggregate_mc(lesk_factory(kEps), adv, n, cfg);
  report(state, res);
  state.counters["n"] = static_cast<double>(n);
  // Every E08 case exports the ARSS O(log^4 n) reference curve: it is
  // the series' comparison line, and the CSV reporter aborts unless all
  // runs in a binary carry the same counter set.
  state.counters["log4_ref"] = arss_time_bound(n);
  state.SetLabel(jam ? "jammed" : "clean");
}

void E08_Lesu(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const int jam = static_cast<int>(state.range(1));
  AdversarySpec adv = adversary(jam ? "saturating" : "none", kT, kEps);
  const McConfig cfg = mc(0xE08, 1 << 22);
  McResult res;
  for (auto _ : state) res = run_aggregate_mc(lesu_factory(), adv, n, cfg);
  report(state, res);
  state.counters["n"] = static_cast<double>(n);
  state.counters["log4_ref"] = arss_time_bound(n);
  state.SetLabel(jam ? "jammed" : "clean");
}

void E08_Arss(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const int jam = static_cast<int>(state.range(1));
  AdversarySpec adv = adversary(jam ? "saturating" : "none", kT, kEps);
  McConfig cfg = mc(0xE08, 1 << 19, 5);  // per-station engine: keep it light
  cfg.batch = 4;  // devirtualized station chunks (sim/station_batch.hpp)
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
  state.counters["log4_ref"] = arss_time_bound(n);
  state.SetLabel(jam ? "jammed" : "clean");
}

void E08_Willard(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const int jam = static_cast<int>(state.range(1));
  AdversarySpec adv = adversary(jam ? "saturating" : "none", kT, kEps);
  const McConfig cfg = mc(0xE08, 1 << 18);  // it fails under jamming: cap it
  McResult res;
  for (auto _ : state) {
    res = run_aggregate_mc([] { return std::make_unique<Willard>(); }, adv, n,
                           cfg);
  }
  report(state, res);
  state.counters["n"] = static_cast<double>(n);
  state.counters["log4_ref"] = arss_time_bound(n);
  state.SetLabel(jam ? "jammed" : "clean");
}

void E08_NakanoOlariu(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const int jam = static_cast<int>(state.range(1));
  AdversarySpec adv = adversary(jam ? "saturating" : "none", kT, kEps);
  const McConfig cfg = mc(0xE08, 1 << 18);
  McResult res;
  for (auto _ : state) {
    res = run_aggregate_mc([] { return std::make_unique<NakanoOlariu>(); },
                           adv, n, cfg);
  }
  report(state, res);
  state.counters["n"] = static_cast<double>(n);
  state.counters["log4_ref"] = arss_time_bound(n);
  state.SetLabel(jam ? "jammed" : "clean");
}

// The class-compressed ARSS engine takes the comparison to n = 2^16,
// where log2(n)^4 has grown 8x over n = 2^12 while LESK's log2(n) grew
// only 1.3x.
void E08_ArssLargeN(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const int jam = static_cast<int>(state.range(1));
  const double gamma = arss_gamma(n, kT);
  const std::size_t kTrials = trials(10);

  std::vector<double> slots, jams, energy;
  std::size_t successes = 0;
  for (auto _ : state) {
    const auto outcomes = per_trial(0xE08F, kTrials, [&](Rng rng) {
      ArssFlockConfig config;
      config.n = n;
      config.params.gamma = gamma;
      config.max_slots = 1 << 22;
      AdversarySpec spec = adversary(jam ? "saturating" : "none", kT, kEps);
      spec.n = n;
      auto adv = make_adversary(spec, rng.child(1));
      Rng sim = rng.child(2);
      return run_arss_flock(config, *adv, sim);
    });
    slots.clear();
    jams.clear();
    energy.clear();
    successes = 0;
    for (const TrialOutcome& out : outcomes) {
      successes += out.elected ? 1 : 0;
      slots.push_back(static_cast<double>(out.slots));
      jams.push_back(static_cast<double>(out.jams));
      energy.push_back(out.transmissions / static_cast<double>(n));
    }
  }
  // Same counter set as report(): the CSV reporter requires it, and the
  // per-trial samples are in hand anyway.
  const Summary slots_summary = summarize(slots);
  state.counters["slots_mean"] = slots_summary.mean;
  state.counters["slots_median"] = slots_summary.median;
  state.counters["slots_p95"] = slots_summary.p95;
  state.counters["success_rate"] =
      static_cast<double>(successes) / static_cast<double>(kTrials);
  state.counters["jams_mean"] = summarize(jams).mean;
  state.counters["energy_per_station"] = summarize(energy).mean;
  state.counters["n"] = static_cast<double>(n);
  state.counters["log4_ref"] = arss_time_bound(n);
  state.SetLabel(jam ? "jammed" : "clean");
}

void E08_NoCd(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  const int jam = static_cast<int>(state.range(1));
  AdversarySpec adv = adversary(jam ? "saturating" : "none", kT, kEps);
  const McConfig cfg = mc(0xE08, 1 << 18);
  McResult res;
  for (auto _ : state) {
    res = run_aggregate_mc(
        [] { return std::make_unique<NoCdElection>(NoCdElectionParams{4}); },
        adv, n, cfg);
  }
  report(state, res);
  state.counters["n"] = static_cast<double>(n);
  state.counters["log4_ref"] = arss_time_bound(n);
  state.SetLabel(jam ? "jammed" : "clean");
}

BENCHMARK(E08_Lesk)->ArgsProduct({{6, 8, 10, 12}, {0, 1}})->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(E08_Lesu)->ArgsProduct({{6, 8, 10, 12}, {0, 1}})->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(E08_Arss)->ArgsProduct({{6, 8, 10, 12}, {0, 1}})->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(E08_Willard)->ArgsProduct({{6, 8, 10, 12}, {0, 1}})->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(E08_NakanoOlariu)->ArgsProduct({{6, 8, 10, 12}, {0, 1}})->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(E08_NoCd)->ArgsProduct({{6, 8, 10, 12}, {0, 1}})->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(E08_ArssLargeN)->ArgsProduct({{12, 14, 16}, {0, 1}})->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace jamelect::bench

JAMELECT_BENCH_MAIN();
