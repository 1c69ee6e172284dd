// Shared plumbing for the experiment benches (DESIGN.md §4).
//
// Each bench binary reproduces one paper claim: a google-benchmark case
// per sweep point, with the measured quantities exported as counters so
// one run prints the whole series. Wall-clock time is irrelevant here —
// the unit of cost is SLOTS — so every case runs exactly once
// (->Iterations(1)) and the interesting numbers live in the counters.
//
// Every Monte-Carlo case fills the pool. mc() runs the batched engines
// with chunks fitted to the pool width, and the hand-rolled trial loops
// fan out through per_trial(), which hands the results back in trial
// order. Trial k draws only from (seed, k), and every fold runs in
// trial order, so the counters are bit-identical at any pool width:
// JAMELECT_THREADS changes the chunking, never a counter.
//
// Environment knobs:
//   JAMELECT_BENCH_TRIALS — Monte-Carlo trials per sweep point; unset,
//                           each binary uses its own default (see
//                           bench/README.md; most use 20).
//   JAMELECT_THREADS      — pool workers for the trial fan-out; the
//                           caller joins them (width = workers + 1).
//                           Unset: hardware concurrency - 1 workers,
//                           so the width is the hardware concurrency.
//   JAMELECT_MANIFEST     — set to 0/off to skip the run manifest;
//   JAMELECT_MANIFEST_DIR — where to write it (default: cwd).
//   JAMELECT_OBS_PROF     — in a -DJAMELECT_OBS=ON build, adds the
//                           phase profile to the manifest.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/theory.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "protocols/lesk.hpp"
#include "protocols/lesu.hpp"
#include "sim/montecarlo.hpp"
#include "support/thread_pool.hpp"
#include "support/wide_rng.hpp"

namespace jamelect::bench {

inline std::size_t trials(std::size_t def = 20) {
  if (const char* env = std::getenv("JAMELECT_BENCH_TRIALS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return def;
}

/// A batched MC config whose chunk size is fitted to the pool: about
/// one chunk per pool slot (workers + the calling thread), that is
/// ceil(trials / width) rounded up to whole SIMD lane groups and capped
/// at 64. Outcomes do not depend on the chunk partition (sim/batch.hpp),
/// so the fit moves only wall time.
inline McConfig mc(std::uint64_t seed, std::int64_t max_slots,
                   std::size_t default_trials = 20) {
  McConfig c;
  c.trials = trials(default_trials);
  c.seed = seed;
  c.max_slots = max_slots;
  const std::size_t width = global_pool().size() + 1;
  const std::size_t groups =
      ((c.trials + width - 1) / width + kWideLanes - 1) / kWideLanes;
  c.batch = std::min<std::size_t>(64, groups * kWideLanes);
  return c;
}

/// Runs body(Rng(seed).child(k)) for every trial k in [0, count) on
/// global_pool() and returns the results in trial order, so a bench
/// that folds the vector front to back gets the same sums as a serial
/// loop. `body` must not call the pool itself: a nested parallel call
/// on the one global pool can deadlock.
template <class Body>
auto per_trial(std::uint64_t seed, std::size_t count, const Body& body) {
  using Result = std::invoke_result_t<const Body&, Rng>;
  // vector<bool> packs bits, so parallel writes to it would race.
  static_assert(!std::is_same_v<Result, bool>);
  std::vector<Result> results(count);
  const Rng base(seed);
  global_pool().parallel_for(
      count, [&](std::size_t k) { results[k] = body(base.child(k)); });
  return results;
}

/// Standard counter set for one Monte-Carlo result.
inline void report(benchmark::State& state, const McResult& res) {
  state.counters["slots_mean"] = res.slots.mean;
  state.counters["slots_median"] = res.slots.median;
  state.counters["slots_p95"] = res.slots.p95;
  state.counters["success_rate"] = res.success.rate;
  state.counters["jams_mean"] = res.jams.mean;
  state.counters["energy_per_station"] = res.energy_per_station.mean;
}

inline AdversarySpec adversary(const std::string& policy, std::int64_t T,
                               double eps) {
  AdversarySpec spec;
  spec.policy = policy;
  spec.T = T;
  spec.eps = eps;
  return spec;
}

inline UniformProtocolFactory lesk_factory(double eps) {
  return [eps] { return std::make_unique<Lesk>(eps); };
}

inline UniformProtocolFactory lesu_factory(LesuParams params = {}) {
  return [params] { return std::make_unique<Lesu>(params); };
}

/// Build flavour actually compiled into this binary. The library's own
/// `library_build_type` context line reports how *libbenchmark* was
/// built (Debian ships a debug-tagged static archive), which is useless
/// for deciding whether the numbers are trustworthy; this reports how
/// the bench code itself was compiled.
inline const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// Names for policy-index sweep arguments (benchmark args are ints).
inline const char* policy_name(int idx) {
  switch (idx) {
    case 0: return "none";
    case 1: return "saturating";
    case 2: return "periodic";
    case 3: return "bernoulli";
    case 4: return "single_denial";
    case 5: return "collision_forcer";
    default: return "none";
  }
}

/// Shared main for every bench binary: runs google-benchmark, then
/// writes `<binary>.manifest.json` recording the full command line,
/// environment knobs, build provenance, and the metric rollup of the
/// run (JAMELECT_MANIFEST=0 disables; see obs/manifest.hpp).
inline int bench_main(int argc, char** argv) {
  // Probe mode for scripts: print the compiled build flavour and exit,
  // so a harness (perfbench/run.py) can refuse to time a debug build.
  if (const char* probe = std::getenv("JAMELECT_BUILD_PROBE");
      probe != nullptr && probe[0] != '\0' && probe[0] != '0') {
    // "obs" reports whether observability is compiled in (the CI
    // profiler-overhead guard asserts OFF builds really compiled it
    // out); any other non-zero value keeps the original build-flavour
    // probe contract ("release"/"debug", exact match).
    if (std::string_view(probe) == "obs") {
      std::printf("obs=%s\n", obs::kObsCompiledIn ? "on" : "off");
    } else {
      std::printf("%s\n", build_type());
    }
    return 0;
  }
  benchmark::AddCustomContext("jamelect_build_type", build_type());
  // The wide-batch backend this process resolved (cpuid + build flags +
  // JAMELECT_FORCE_SCALAR): batch-engine numbers are only comparable
  // across runs with the same backend.
  benchmark::AddCustomContext("jamelect_wide_isa",
                              wide_isa_name(active_wide_isa()));
  // Effective trial fan-out width: pool workers + the participating
  // caller (JAMELECT_THREADS + 1, or the hardware concurrency). The
  // parallel orchestration cases' numbers only mean anything relative
  // to this.
  benchmark::AddCustomContext("jamelect_threads",
                              std::to_string(global_pool().size() + 1));

  obs::MetricsRegistry::global().set_enabled(true);

  std::string cmdline;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) cmdline += ' ';
    cmdline += argv[i];
  }
  std::string name = argc > 0 && argv[0] != nullptr ? argv[0] : "bench";
  if (const auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // With the profiler on (JAMELECT_OBS_PROF in an obs build), pool waits
  // fill the `idle` and `steal_wait` phases of the manifest's profile.
  const bool profiling =
      obs::kObsCompiledIn && obs::PhaseProfiler::global().enabled();
  obs::PoolProfObserver pool_prof;
  if (profiling) global_pool().set_task_observer(&pool_prof);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (profiling) global_pool().set_task_observer(nullptr);

  if (const std::string path = obs::manifest_path_for(name); !path.empty()) {
    obs::RunManifest manifest;
    manifest.name = name;
    manifest.config["cmdline"] = cmdline;
    manifest.config["build_type"] = build_type();
    manifest.config["wide_isa"] = wide_isa_name(active_wide_isa());
    manifest.config["threads_effective"] =
        std::to_string(global_pool().size() + 1);
    manifest.config["trials"] = std::to_string(trials());
    if (const char* threads = std::getenv("JAMELECT_THREADS")) {
      manifest.config["threads"] = threads;
    }
    if (!manifest.write_file(path)) {
      std::fprintf(stderr, "warning: could not write manifest %s\n",
                   path.c_str());
    }
  }
  return 0;
}

}  // namespace jamelect::bench

/// Drop-in replacement for BENCHMARK_MAIN() that also emits the run
/// manifest. Every bench binary uses this.
#define JAMELECT_BENCH_MAIN()                         \
  int main(int argc, char** argv) {                   \
    return ::jamelect::bench::bench_main(argc, argv); \
  }
