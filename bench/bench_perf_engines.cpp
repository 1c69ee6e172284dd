// Engine performance (wall-clock, not slots): how fast does each
// simulation engine chew through slots? This is the one bench where
// google-benchmark's timing columns are the point.
//
//   * aggregate: O(1)/slot regardless of n — the reason the E-series
//     can sweep n = 2^20;
//   * per-station: O(n)/slot — the exact reference engine;
//   * hybrid: O(1)/slot Notification simulation;
//   * cohort: O(#cohorts)/slot — per-station semantics at near-
//     aggregate speed for protocols that stay (mostly) in lockstep.
//
// Protocol under measurement: SizeApproximation (it never elects, so a
// run processes exactly the requested number of slots).
#include "bench_common.hpp"

#include <memory>
#include <ostream>
#include <streambuf>

#include "baselines/willard.hpp"
#include "extensions/size_approximation.hpp"
#include "obs/events.hpp"
#include "obs/observer.hpp"
#include "protocols/uniform_station.hpp"
#include "sim/aggregate.hpp"
#include "sim/cohort.hpp"
#include "sim/engine.hpp"
#include "sim/hybrid.hpp"

namespace jamelect::bench {
namespace {

constexpr std::int64_t kSlots = 1 << 15;

void Perf_AggregateEngine(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  AdversarySpec spec = adversary("saturating", 64, 0.5);
  spec.n = n;
  std::int64_t slots = 0;
  for (auto _ : state) {
    SizeApproximation proto({0.5, kSlots});
    Rng rng(11);
    auto adv = make_adversary(spec, rng.child(1));
    Rng sim = rng.child(2);
    const auto out = run_aggregate(proto, *adv, {n, kSlots}, sim);
    slots += out.slots;
    benchmark::DoNotOptimize(out.slots);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
}

void Perf_PerStationEngine(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  AdversarySpec spec = adversary("saturating", 64, 0.5);
  spec.n = n;
  constexpr std::int64_t kSmall = 1 << 11;
  std::int64_t slots = 0;
  for (auto _ : state) {
    std::vector<StationProtocolPtr> stations;
    for (std::uint64_t i = 0; i < n; ++i) {
      stations.push_back(std::make_unique<UniformStationAdapter>(
          std::make_unique<SizeApproximation>(
              SizeApproximationParams{0.5, kSmall})));
    }
    Rng rng(13);
    SlotEngine engine(std::move(stations), make_adversary(spec, rng.child(1)),
                      rng.child(2),
                      {CdMode::kStrong, StopRule::kAllDone, kSmall});
    const auto out = engine.run();
    slots += out.slots;
    benchmark::DoNotOptimize(out.slots);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
}

void Perf_CohortEngine(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  AdversarySpec spec = adversary("saturating", 64, 0.5);
  spec.n = n;
  std::int64_t slots = 0;
  for (auto _ : state) {
    Rng rng(13);
    CohortEngine engine(
        std::make_unique<UniformStationAdapter>(
            std::make_unique<SizeApproximation>(
                SizeApproximationParams{0.5, kSlots})),
        n, make_adversary(spec, rng.child(1)), rng.child(2),
        {CdMode::kStrong, StopRule::kAllDone, kSlots});
    const auto out = engine.run();
    slots += out.slots;
    benchmark::DoNotOptimize(out.slots);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
}

// Same workload as Perf_PerStationEngine (kSmall slots) so the
// cohort-vs-exact speedup at per-station-feasible sizes reads directly
// off the items/sec column.
void Perf_CohortEngineSmall(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  AdversarySpec spec = adversary("saturating", 64, 0.5);
  spec.n = n;
  constexpr std::int64_t kSmall = 1 << 11;
  std::int64_t slots = 0;
  for (auto _ : state) {
    Rng rng(13);
    CohortEngine engine(
        std::make_unique<UniformStationAdapter>(
            std::make_unique<SizeApproximation>(
                SizeApproximationParams{0.5, kSmall})),
        n, make_adversary(spec, rng.child(1)), rng.child(2),
        {CdMode::kStrong, StopRule::kAllDone, kSmall});
    const auto out = engine.run();
    slots += out.slots;
    benchmark::DoNotOptimize(out.slots);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
}

// Perf_CohortEngine with an NDJSON event stream attached at the default
// sampling period. The delta against Perf_CohortEngine is the full
// telemetry cost (event construction + serialization); the acceptance
// budget is < 5%. Output goes to a discarding streambuf so the bench
// measures telemetry, not disk.
void Perf_CohortEngineTelemetry(benchmark::State& state) {
  struct NullBuf final : std::streambuf {
    int overflow(int c) override { return traits_type::not_eof(c); }
    std::streamsize xsputn(const char*, std::streamsize n) override {
      return n;
    }
  };
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  AdversarySpec spec = adversary("saturating", 64, 0.5);
  spec.n = n;
  NullBuf buf;
  std::ostream devnull(&buf);
  obs::NdjsonSink sink(devnull);
  obs::RunObserver observer(sink);
  std::int64_t slots = 0;
  for (auto _ : state) {
    Rng rng(13);
    EngineConfig config{CdMode::kStrong, StopRule::kAllDone, kSlots};
    config.observer = &observer;
    CohortEngine engine(
        std::make_unique<UniformStationAdapter>(
            std::make_unique<SizeApproximation>(
                SizeApproximationParams{0.5, kSlots})),
        n, make_adversary(spec, rng.child(1)), rng.child(2), config);
    const auto out = engine.run();
    slots += out.slots;
    benchmark::DoNotOptimize(out.slots);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
}

// Batched kernel Monte-Carlo (McConfig::batch) against the sequential
// aggregate MC it replaces. Both run the *identical* trials — the batch
// engine is bit-identical per trial — so items/sec divides into a true
// speedup. LESK under a saturating adversary is the paper's headline
// workload; parallel is off so the ratio is single-core engine speed,
// not thread-pool scheduling.
[[nodiscard]] McResult lesk_mc(std::uint64_t n, std::size_t batch,
                               std::size_t n_trials, bool parallel = false) {
  AdversarySpec spec = adversary("saturating", 64, 0.5);
  McConfig config = mc(/*seed=*/23, /*max_slots=*/kSlots, n_trials);
  config.parallel = parallel;
  config.batch = batch;
  return run_aggregate_mc(lesk_factory(0.5), spec, n, config);
}

[[nodiscard]] std::int64_t total_slots(const McResult& res) {
  return static_cast<std::int64_t>(
      res.slots.mean * static_cast<double>(res.slots.count) + 0.5);
}

// The batched workload on the SIMD-wide lane path: items/sec over
// Perf_SequentialMcBaseline (the same trials, sequentially) is
// the batch speedup (the backend — avx2/scalar4 — is recorded in the
// benchmark context as jamelect_wide_isa).
void Perf_WideBatchEngine(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  std::int64_t slots = 0;
  for (auto _ : state) {
    const McResult res = lesk_mc(n, /*batch=*/64, /*n_trials=*/64);
    slots += total_slots(res);
    benchmark::DoNotOptimize(res.successes);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
  state.counters["batch"] = 64;
}

// Multi-core wide-batch orchestration: the Perf_WideBatchEngine
// workload scaled up (more trials, so chunks outnumber workers) and
// fanned out over the thread pool. items/sec over a single-threaded
// run of this same case is the parallel speedup; the fan-out width is
// stamped into the JSON context as jamelect_threads (and the per-case
// `threads` counter). Per-trial outcomes are bit-identical at every
// width — tests/parallel_mc_test.cpp holds that line.
void Perf_ParallelWideBatchEngine(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  std::int64_t slots = 0;
  for (auto _ : state) {
    const McResult res = lesk_mc(n, /*batch=*/64, /*n_trials=*/512,
                                 /*parallel=*/true);
    slots += total_slots(res);
    benchmark::DoNotOptimize(res.successes);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
  state.counters["batch"] = 64;
  state.counters["threads"] =
      static_cast<double>(global_pool().size() + 1);
}

// Adaptive-adversary Monte-Carlo: collision_forcer keeps per-lane state
// (budget recurrence, tracked public estimate, jam desires), which used
// to disqualify the wide path entirely — the whole sweep ran
// sequentially. The lane-variant adversary bank (sim/lane_adversary.hpp)
// now runs it wide; the two benches below are the sequential baseline
// and the wide path on the same trials (bit-identical per trial, so
// items/sec divides into a true speedup).
[[nodiscard]] McResult adaptive_mc(std::uint64_t n, std::size_t batch,
                                   std::size_t n_trials) {
  AdversarySpec spec = adversary("collision_forcer", 64, 0.5);
  spec.collision_threshold = 0.6;
  McConfig config = mc(/*seed=*/29, /*max_slots=*/kSlots, n_trials);
  config.parallel = false;
  config.batch = batch;
  return run_aggregate_mc(lesk_factory(0.5), spec, n, config);
}

void Perf_AdaptiveSequentialMcBaseline(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  std::int64_t slots = 0;
  for (auto _ : state) {
    const McResult res = adaptive_mc(n, /*batch=*/0, /*n_trials=*/64);
    slots += total_slots(res);
    benchmark::DoNotOptimize(res.successes);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
}

void Perf_AdaptiveWideBatchEngine(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  std::int64_t slots = 0;
  for (auto _ : state) {
    const McResult res = adaptive_mc(n, /*batch=*/64, /*n_trials=*/64);
    slots += total_slots(res);
    benchmark::DoNotOptimize(res.successes);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
  state.counters["batch"] = 64;
}

// The kernelized bench_e08 workload: a baseline protocol (Willard, via
// its POD kernel twin in baselines/baseline_kernels.hpp) batched
// through the generic wide path, against the sequential virtual-class
// run of the same trials. Saturating jamming keeps Willard from
// electing, so every trial processes the full slot budget.
[[nodiscard]] McResult willard_mc(std::uint64_t n, std::size_t batch,
                                  std::size_t n_trials) {
  AdversarySpec spec = adversary("saturating", 64, 0.5);
  McConfig config = mc(/*seed=*/31, /*max_slots=*/kSlots, n_trials);
  config.parallel = false;
  config.batch = batch;
  return run_aggregate_mc([] { return std::make_unique<Willard>(); }, spec, n,
                          config);
}

void Perf_BaselineSequentialMcBaseline(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  std::int64_t slots = 0;
  for (auto _ : state) {
    const McResult res = willard_mc(n, /*batch=*/0, /*n_trials=*/64);
    slots += total_slots(res);
    benchmark::DoNotOptimize(res.successes);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
}

void Perf_BaselineKernelBatchEngine(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  std::int64_t slots = 0;
  for (auto _ : state) {
    const McResult res = willard_mc(n, /*batch=*/64, /*n_trials=*/64);
    slots += total_slots(res);
    benchmark::DoNotOptimize(res.successes);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
  state.counters["batch"] = 64;
}

void Perf_SequentialMcBaseline(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  std::int64_t slots = 0;
  for (auto _ : state) {
    const McResult res = lesk_mc(n, /*batch=*/0, /*n_trials=*/64);
    slots += total_slots(res);
    benchmark::DoNotOptimize(res.successes);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
}

// Cohort-lane batched Monte-Carlo (sim/batch.hpp) against the
// sequential cohort MC it replaces. Identical trials bit for bit —
// same adapter prototype, same per-trial streams — so items/sec
// divides into a true speedup. The cohort engine is the one that
// keeps per-station semantics at scale, and sequentially it pays a
// fresh binomial setup (log1p/exp or full BTPE constants) plus a
// virtual transmit_probability per cohort per slot; the lanes amortize
// that through the memoized plan cache and grouped wide uniforms.
[[nodiscard]] McResult cohort_lesk_mc(std::uint64_t n, std::size_t batch,
                                      std::size_t n_trials) {
  AdversarySpec spec = adversary("saturating", 64, 0.5);
  spec.n = n;
  McConfig config = mc(/*seed=*/41, /*max_slots=*/kSlots, n_trials);
  config.parallel = false;
  config.batch = batch;
  return run_cohort_mc(
      [] {
        return std::make_unique<UniformStationAdapter>(
            std::make_unique<Lesk>(0.5));
      },
      spec, n, {CdMode::kStrong, StopRule::kFirstSingle, kSlots}, config);
}

void Perf_CohortSequentialMcBaseline(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  std::int64_t slots = 0;
  for (auto _ : state) {
    const McResult res = cohort_lesk_mc(n, /*batch=*/0, /*n_trials=*/64);
    slots += total_slots(res);
    benchmark::DoNotOptimize(res.successes);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
}

void Perf_CohortBatchEngine(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  std::int64_t slots = 0;
  for (auto _ : state) {
    const McResult res = cohort_lesk_mc(n, /*batch=*/64, /*n_trials=*/64);
    slots += total_slots(res);
    benchmark::DoNotOptimize(res.successes);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
  state.counters["batch"] = 64;
}

// Same trials at a deliberately small lane count: the delta against
// Perf_CohortBatchEngine is how much of the win needs full-width
// chunks (plan-cache reuse already kicks in at 8 lanes; the wide-RNG
// group draws want the bigger chunk).
void Perf_CohortBatchEngineSmall(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  std::int64_t slots = 0;
  for (auto _ : state) {
    const McResult res = cohort_lesk_mc(n, /*batch=*/8, /*n_trials=*/64);
    slots += total_slots(res);
    benchmark::DoNotOptimize(res.successes);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
  state.counters["batch"] = 8;
}

void Perf_HybridEngine(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(1) << state.range(0);
  AdversarySpec spec = adversary("saturating", 64, 0.5);
  spec.n = n;
  std::int64_t slots = 0;
  for (auto _ : state) {
    Rng rng(17);
    auto adv = make_adversary(spec, rng.child(1));
    Rng sim = rng.child(2);
    // The inner protocol never elects, so Notification loops for the
    // whole budget.
    const auto out = run_hybrid_notification(
        [] {
          return std::make_unique<SizeApproximation>(
              SizeApproximationParams{0.5, kSlots});
        },
        *adv, {n, kSlots}, sim);
    slots += out.slots;
    benchmark::DoNotOptimize(out.slots);
  }
  state.SetItemsProcessed(slots);
  state.counters["n"] = static_cast<double>(n);
}

BENCHMARK(Perf_AggregateEngine)->Arg(4)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_PerStationEngine)->Arg(4)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_CohortEngine)->Arg(4)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_CohortEngineSmall)->Arg(4)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_CohortEngineTelemetry)->Arg(4)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_HybridEngine)->Arg(4)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_WideBatchEngine)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_ParallelWideBatchEngine)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_SequentialMcBaseline)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_CohortSequentialMcBaseline)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_CohortBatchEngine)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_CohortBatchEngineSmall)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_AdaptiveSequentialMcBaseline)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_AdaptiveWideBatchEngine)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_BaselineSequentialMcBaseline)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(Perf_BaselineKernelBatchEngine)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace jamelect::bench

JAMELECT_BENCH_MAIN();
