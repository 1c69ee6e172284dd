// jamelect_scalingreport — thread-count scaling study of the parallel
// wide-batch Monte-Carlo engine, with a phase-attributed profile.
//
//   jamelect_scalingreport [--threads=1,2,4,8] [--n=1024] [--trials=512]
//                          [--batch=64] [--max-slots=32768] [--seed=23]
//                          [--eps=0.5] [--T=64] [--repeats=3]
//                          [--json=scaling_report.json]
//                          [--md=scaling_report.md]
//                          [--manifest=jamelect_scalingreport]
//
// The workload is bench_perf_engines' Perf_ParallelWideBatchEngine
// verbatim: LESK(eps) under a saturating adversary (T, eps), batched
// wide lanes, trials fanned out over a pinned thread pool. Per-trial
// outcomes are bit-identical at every width (the engines' contract),
// which this tool re-checks — so wall-clock differences are pure
// scheduling.
//
// For each thread count the tool runs two passes:
//   1. a timing pass (profiler OFF, min of --repeats) -> seconds,
//      slots/s, parallel efficiency T1 / (k * Tk);
//   2. a profiling pass (PhaseProfiler ON, PoolProfObserver attached)
//      -> per-phase time shares (rng / classify / cache_lookup /
//      lattice_update / merge / steal_wait / idle) and per-thread
//      SlotProbCache hit-rate variance.
// A closed-form least-squares Amdahl fit over the timing pass reports
// the serial fraction s: model Tk/T1 = s + (1-s)/k, i.e. with
// x_k = 1 - 1/k and y_k = Tk/T1 - 1/k, s = sum(x*y)/sum(x^2), clamped
// to [0, 1].
//
// NOTE: on a 1-core host every width > 1 measures oversubscription, not
// speedup — the report states measured efficiency and never asserts it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/prof.hpp"
#include "protocols/lesk.hpp"
#include "service/json.hpp"
#include "sim/adversary_spec.hpp"
#include "sim/montecarlo.hpp"
#include "support/cli.hpp"
#include "support/thread_pool.hpp"

namespace {

using jamelect::service::Json;
using Clock = std::chrono::steady_clock;

struct Workload {
  std::uint64_t n = 1024;
  std::size_t trials = 512;
  std::size_t batch = 64;
  std::int64_t max_slots = 1 << 15;
  std::uint64_t seed = 23;
  double eps = 0.5;
  std::int64_t T = 64;
};

struct PhaseShare {
  const char* name;
  std::int64_t ns;
  double share;  ///< of the summed engine+scheduling phase time
};

struct WidthResult {
  std::size_t threads = 1;
  double seconds = 0.0;       ///< min over repeats, profiler off
  double slots_per_sec = 0.0;
  double efficiency = 0.0;    ///< T1 / (k * Tk)
  std::vector<PhaseShare> phases;
  std::vector<double> cache_hit_rates;  ///< per worker thread
  double cache_hit_mean = 0.0;
  double cache_hit_stddev = 0.0;
  // Outcome fingerprint for the bit-identity check across widths.
  std::size_t successes = 0;
  double slots_mean = 0.0;
  std::int64_t total_slots = 0;
};

jamelect::McResult run_workload(const Workload& w, jamelect::ThreadPool* pool,
                                bool parallel) {
  jamelect::AdversarySpec spec;
  spec.policy = "saturating";
  spec.T = w.T;
  spec.eps = w.eps;
  jamelect::McConfig config;
  config.trials = w.trials;
  config.seed = w.seed;
  config.max_slots = w.max_slots;
  config.parallel = parallel;
  config.batch = w.batch;
  config.pool = pool;
  const double eps = w.eps;
  return run_aggregate_mc(
      [eps] { return std::make_unique<jamelect::Lesk>(eps); }, spec, w.n,
      config);
}

std::int64_t total_slots(const jamelect::McResult& res) {
  return static_cast<std::int64_t>(
      res.slots.mean * static_cast<double>(res.slots.count) + 0.5);
}

/// One thread-count measurement: timing pass then profiling pass.
WidthResult measure(const Workload& w, std::size_t threads, int repeats) {
  WidthResult out;
  out.threads = threads;
  // Width 1 = the in-caller sequential path; width k >= 2 pins a pool
  // of k - 1 workers (the caller is the k-th executor: ThreadPool
  // chunks are drained by workers AND the submitting thread).
  std::unique_ptr<jamelect::ThreadPool> pool;
  const bool parallel = threads >= 2;
  if (parallel) pool = std::make_unique<jamelect::ThreadPool>(threads - 1);

  auto& prof = jamelect::obs::PhaseProfiler::global();

  // Timing pass: profiler off, min of repeats.
  prof.set_enabled(false);
  double best = -1.0;
  for (int r = 0; r < std::max(1, repeats); ++r) {
    const auto t0 = Clock::now();
    const jamelect::McResult res = run_workload(w, pool.get(), parallel);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (best < 0.0 || s < best) best = s;
    out.successes = res.successes;
    out.slots_mean = res.slots.mean;
    out.total_slots = total_slots(res);
  }
  out.seconds = best;
  out.slots_per_sec =
      best > 0.0 ? static_cast<double>(out.total_slots) / best : 0.0;

  // Profiling pass: phase attribution + per-thread cache hit rates.
  jamelect::obs::TraceEventRecorder* no_trace = nullptr;
  jamelect::obs::PoolProfObserver pool_obs(no_trace);
  if (pool) pool->set_task_observer(&pool_obs);
  prof.reset();
  prof.set_enabled(true);
  (void)run_workload(w, pool.get(), parallel);
  prof.set_enabled(false);
  if (pool) pool->set_task_observer(nullptr);

  const jamelect::obs::ProfSnapshot snap = prof.snapshot();
  using jamelect::obs::Phase;
  const Phase interesting[] = {
      Phase::kRng,         Phase::kClassify,  Phase::kCacheLookup,
      Phase::kLatticeUpdate, Phase::kMerge,   Phase::kStealWait,
      Phase::kIdle,
  };
  std::int64_t sum_ns = 0;
  for (const Phase p : interesting) {
    sum_ns += snap.total.ns[static_cast<std::size_t>(p)];
  }
  for (const Phase p : interesting) {
    const std::int64_t ns = snap.total.ns[static_cast<std::size_t>(p)];
    out.phases.push_back({jamelect::obs::phase_name(p), ns,
                          sum_ns > 0 ? static_cast<double>(ns) /
                                           static_cast<double>(sum_ns)
                                     : 0.0});
  }
  using jamelect::obs::ProfCounter;
  for (const auto& t : snap.threads) {
    const std::int64_t lookups =
        t.counters[static_cast<std::size_t>(ProfCounter::kCacheLookups)];
    if (lookups <= 0) continue;  // thread ran no engine chunks
    const std::int64_t hits =
        t.counters[static_cast<std::size_t>(ProfCounter::kCacheHits)];
    out.cache_hit_rates.push_back(static_cast<double>(hits) /
                                  static_cast<double>(lookups));
  }
  if (!out.cache_hit_rates.empty()) {
    double sum = 0.0;
    for (const double r : out.cache_hit_rates) sum += r;
    out.cache_hit_mean = sum / static_cast<double>(out.cache_hit_rates.size());
    double var = 0.0;
    for (const double r : out.cache_hit_rates) {
      var += (r - out.cache_hit_mean) * (r - out.cache_hit_mean);
    }
    out.cache_hit_stddev = std::sqrt(
        var / static_cast<double>(out.cache_hit_rates.size()));
  }
  return out;
}

/// Closed-form least-squares serial fraction (see file comment).
double amdahl_serial_fraction(const std::vector<WidthResult>& widths) {
  double t1 = -1.0;
  for (const auto& w : widths) {
    if (w.threads == 1) t1 = w.seconds;
  }
  if (t1 <= 0.0) return 1.0;
  double sxy = 0.0;
  double sxx = 0.0;
  for (const auto& w : widths) {
    if (w.threads <= 1) continue;
    const double k = static_cast<double>(w.threads);
    const double x = 1.0 - 1.0 / k;
    const double y = w.seconds / t1 - 1.0 / k;
    sxy += x * y;
    sxx += x * x;
  }
  if (sxx <= 0.0) return 1.0;
  return std::clamp(sxy / sxx, 0.0, 1.0);
}

std::vector<std::size_t> parse_threads(const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                    : comma - pos);
    if (!tok.empty()) {
      const long v = std::strtol(tok.c_str(), nullptr, 10);
      if (v >= 1) out.push_back(static_cast<std::size_t>(v));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) out = {1, 2, 4, 8};
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jamelect;
  const Cli cli(argc, argv);

  Workload w;
  w.n = cli.get_uint("n", w.n);
  w.trials = cli.get_uint("trials", w.trials);
  w.batch = cli.get_uint("batch", w.batch);
  w.max_slots = cli.get_int("max-slots", w.max_slots);
  w.seed = cli.get_uint("seed", w.seed);
  w.eps = cli.get_double("eps", w.eps);
  w.T = cli.get_int("T", w.T);
  const int repeats = static_cast<int>(cli.get_int("repeats", 3));
  const std::vector<std::size_t> threads =
      parse_threads(cli.get_string("threads", "1,2,4,8"));
  const std::string json_path = cli.get_string("json", "scaling_report.json");
  const std::string md_path = cli.get_string("md", "scaling_report.md");

  std::vector<WidthResult> widths;
  widths.reserve(threads.size());
  for (const std::size_t k : threads) {
    std::fprintf(stderr, "scalingreport: threads=%zu ...\n", k);
    widths.push_back(measure(w, k, repeats));
  }

  // Bit-identity across widths: same seed -> same outcomes everywhere.
  bool identical = true;
  for (const auto& wr : widths) {
    if (wr.successes != widths.front().successes ||
        wr.slots_mean != widths.front().slots_mean) {
      identical = false;
    }
  }

  double t1 = -1.0;
  for (const auto& wr : widths) {
    if (wr.threads == 1) t1 = wr.seconds;
  }
  for (auto& wr : widths) {
    wr.efficiency = (t1 > 0.0 && wr.seconds > 0.0)
                        ? t1 / (static_cast<double>(wr.threads) * wr.seconds)
                        : 0.0;
  }
  const double serial = amdahl_serial_fraction(widths);

  // JSON report.
  Json report;
  report.set_object();
  {
    Json wl;
    wl.set_object();
    wl.set("workload", "Perf_ParallelWideBatchEngine");
    wl.set("protocol", "lesk");
    wl.set("adversary", "saturating");
    wl.set("n", w.n);
    wl.set("trials", static_cast<std::uint64_t>(w.trials));
    wl.set("batch", static_cast<std::uint64_t>(w.batch));
    wl.set("max_slots", w.max_slots);
    wl.set("seed", w.seed);
    wl.set("eps", w.eps);
    wl.set("T", w.T);
    wl.set("repeats", static_cast<std::int64_t>(repeats));
    report.set("workload", std::move(wl));
  }
  {
    Json arr;
    arr.set_array();
    for (const auto& wr : widths) {
      Json e;
      e.set_object();
      e.set("threads", static_cast<std::uint64_t>(wr.threads));
      e.set("seconds", wr.seconds);
      e.set("slots_per_sec", wr.slots_per_sec);
      e.set("efficiency", wr.efficiency);
      Json phases;
      phases.set_object();
      for (const auto& p : wr.phases) {
        Json pe;
        pe.set_object();
        pe.set("ns", p.ns);
        pe.set("share", p.share);
        phases.set(p.name, std::move(pe));
      }
      e.set("phases", std::move(phases));
      Json cache;
      cache.set_object();
      Json rates;
      rates.set_array();
      for (const double r : wr.cache_hit_rates) rates.push_back(r);
      cache.set("per_thread_hit_rate", std::move(rates));
      cache.set("hit_rate_mean", wr.cache_hit_mean);
      cache.set("hit_rate_stddev", wr.cache_hit_stddev);
      e.set("slot_prob_cache", std::move(cache));
      e.set("successes", static_cast<std::uint64_t>(wr.successes));
      e.set("slots_mean", wr.slots_mean);
      arr.push_back(std::move(e));
    }
    report.set("thread_counts", std::move(arr));
  }
  {
    Json fit;
    fit.set_object();
    fit.set("model", "Tk/T1 = s + (1-s)/k");
    fit.set("serial_fraction", serial);
    report.set("amdahl", std::move(fit));
  }
  report.set("outcomes_bit_identical", identical);
  // When the build compiled observability out (Release without
  // -DJAMELECT_OBS=ON), the timing columns are still valid but every
  // phase share reads zero — flag it so consumers don't misread that
  // as "no idle/steal time".
  report.set("profiler_compiled_in", obs::kObsCompiledIn);

  if (!json_path.empty()) {
    std::ofstream f(json_path);
    f << report.dump() << "\n";
    if (!f) std::cerr << "scalingreport: cannot write " << json_path << "\n";
  }

  // Markdown report.
  if (!md_path.empty()) {
    std::ofstream f(md_path);
    f << "# Wide-batch engine scaling report\n\n";
    if (!obs::kObsCompiledIn) {
      f << "> **Note**: this binary was built without observability "
           "(`-DJAMELECT_OBS=ON`); phase shares and cache hit rates read "
           "zero. Timing and efficiency columns are unaffected.\n\n";
    }
    f << ""
      << "Workload: `Perf_ParallelWideBatchEngine` — LESK(eps=" << w.eps
      << ") vs saturating(T=" << w.T << "), n=" << w.n
      << ", trials=" << w.trials << ", batch=" << w.batch
      << ", max_slots=" << w.max_slots << ", seed=" << w.seed << ".\n\n"
      << "Amdahl fit `Tk/T1 = s + (1-s)/k`: **serial fraction s = "
      << serial << "**.\n\n"
      << "Per-trial outcomes bit-identical across widths: "
      << (identical ? "yes" : "**NO — engine contract violation**")
      << ".\n\n"
      << "| threads | time (s) | slots/s | efficiency | steal_wait | idle |"
         " merge | cache-hit σ |\n"
      << "|---:|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const auto& wr : widths) {
      double steal = 0.0;
      double idle = 0.0;
      double merge = 0.0;
      for (const auto& p : wr.phases) {
        if (std::string(p.name) == "steal_wait") steal = p.share;
        if (std::string(p.name) == "idle") idle = p.share;
        if (std::string(p.name) == "merge") merge = p.share;
      }
      char line[256];
      std::snprintf(line, sizeof line,
                    "| %zu | %.4f | %.3g | %.3f | %.1f%% | %.1f%% | %.1f%% |"
                    " %.4f |\n",
                    wr.threads, wr.seconds, wr.slots_per_sec, wr.efficiency,
                    steal * 100.0, idle * 100.0, merge * 100.0,
                    wr.cache_hit_stddev);
      f << line;
    }
    f << "\nPhase shares are fractions of summed engine+scheduling phase "
         "time from the profiling pass (see docs/OBSERVABILITY.md). On "
         "hosts with fewer cores than threads the efficiency column "
         "measures oversubscription, not speedup.\n";
    if (!f) std::cerr << "scalingreport: cannot write " << md_path << "\n";
  }

  std::printf("scalingreport: serial_fraction=%.4f, outcomes %s\n", serial,
              identical ? "bit-identical" : "DIVERGED");
  for (const auto& wr : widths) {
    std::printf("  threads=%zu  %.4fs  %.3g slots/s  eff=%.3f\n", wr.threads,
                wr.seconds, wr.slots_per_sec, wr.efficiency);
  }

  obs::RunManifest manifest;
  manifest.name = cli.get_string("manifest", "jamelect_scalingreport");
  manifest.seed = w.seed;
  manifest.include_metrics = false;
  manifest.config["n"] = std::to_string(w.n);
  manifest.config["trials"] = std::to_string(w.trials);
  manifest.config["batch"] = std::to_string(w.batch);
  manifest.config["max_slots"] = std::to_string(w.max_slots);
  manifest.config["threads"] = cli.get_string("threads", "1,2,4,8");
  manifest.config["repeats"] = std::to_string(repeats);
  manifest.config["serial_fraction"] = obs::canonical_number(serial);
  // Built from a char, not a `cond ? "1" : "0"` literal pick: GCC 12's
  // -Wrestrict false-positives on the latter at -O2 (cf. PR105329).
  manifest.config["outcomes_bit_identical"] = std::string(1, identical ? '1' : '0');
  const std::string mpath = obs::manifest_path_for(manifest.name);
  if (!mpath.empty()) (void)manifest.write_file(mpath);

  return identical ? 0 : 3;
}
