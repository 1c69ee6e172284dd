#include "sim/montecarlo.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "protocols/uniform_station.hpp"
#include "sim/aggregate.hpp"
#include "sim/batch.hpp"
#include "sim/cohort.hpp"
#include "sim/station_batch.hpp"
#include "support/expects.hpp"
#include "support/shutdown.hpp"
#include "support/thread_pool.hpp"

namespace jamelect {

namespace {

// Streaming accumulation. Slots and jams are integers, so their
// multisets compress into value -> count maps; every field merges
// order-independently (counter addition, map addition, multiset union —
// energy is sorted inside summarize()), which keeps results independent
// of thread scheduling.

/// Per-worker accumulator for the streaming (keep_outcomes == false)
/// path.
struct TrialAccumulator {
  std::size_t successes = 0;
  std::unordered_map<std::int64_t, std::uint64_t> slots;
  std::unordered_map<std::int64_t, std::uint64_t> slots_ok;
  std::unordered_map<std::int64_t, std::uint64_t> jams;
  std::vector<double> energy;
};

void accumulate(TrialAccumulator& acc, const TrialOutcome& o,
                std::uint64_t n_for_energy) {
  if (o.elected) {
    ++acc.successes;
    ++acc.slots_ok[o.slots];
  }
  ++acc.slots[o.slots];
  ++acc.jams[o.jams];
  acc.energy.push_back(o.transmissions / static_cast<double>(n_for_energy));
}

void merge_into(TrialAccumulator& into, TrialAccumulator&& from) {
  into.successes += from.successes;
  for (const auto& [v, c] : from.slots) into.slots[v] += c;
  for (const auto& [v, c] : from.slots_ok) into.slots_ok[v] += c;
  for (const auto& [v, c] : from.jams) into.jams[v] += c;
  into.energy.insert(into.energy.end(), from.energy.begin(),
                     from.energy.end());
}

[[nodiscard]] std::vector<std::pair<double, std::uint64_t>>
to_value_counts(const std::unordered_map<std::int64_t, std::uint64_t>& counts) {
  std::vector<std::pair<double, std::uint64_t>> pairs;
  pairs.reserve(counts.size());
  for (const auto& [v, c] : counts) {
    pairs.emplace_back(static_cast<double>(v), c);
  }
  return pairs;
}

/// The pool a run fans out on: an explicit McConfig::pool wins, else
/// the process-wide default. Pure routing — per-trial results are
/// independent of the pool and its size.
[[nodiscard]] ThreadPool& pool_for(const McConfig& config) {
  return config.pool != nullptr ? *config.pool : global_pool();
}

/// Summaries from fully materialized outcomes (keep_outcomes == true);
/// the outcome vector is moved into the result.
McResult result_from_outcomes(std::vector<TrialOutcome>&& outcomes,
                              std::uint64_t n_for_energy) {
  McResult res;
  res.trials = outcomes.size();
  if (outcomes.empty()) return res;  // fully-drained interrupted run
  std::vector<double> slots, slots_ok, jams, energy;
  slots.reserve(outcomes.size());
  for (const TrialOutcome& o : outcomes) {
    if (o.elected) {
      ++res.successes;
      slots_ok.push_back(static_cast<double>(o.slots));
    }
    slots.push_back(static_cast<double>(o.slots));
    jams.push_back(static_cast<double>(o.jams));
    energy.push_back(o.transmissions / static_cast<double>(n_for_energy));
  }
  res.success = wilson_interval(res.successes, res.trials);
  res.slots = summarize(std::span<const double>(slots));
  if (!slots_ok.empty()) {
    res.slots_on_success = summarize(std::span<const double>(slots_ok));
  }
  res.jams = summarize(std::span<const double>(jams));
  res.energy_per_station = summarize(std::span<const double>(energy));
  res.outcomes = std::move(outcomes);
  return res;
}

/// Summaries from a folded accumulator (keep_outcomes == false). The
/// accumulator holds one energy sample per completed trial, so its size
/// IS the completed-trial count (== trials unless a shutdown drained
/// the run early).
McResult result_from_accumulator(const TrialAccumulator& total,
                                 std::size_t trials) {
  McResult res;
  res.trials = total.energy.size();
  res.interrupted = res.trials < trials;
  if (res.trials == 0) return res;
  res.successes = total.successes;
  res.success = wilson_interval(res.successes, res.trials);
  res.slots = summarize_weighted(to_value_counts(total.slots));
  if (!total.slots_ok.empty()) {
    res.slots_on_success =
        summarize_weighted(to_value_counts(total.slots_ok));
  }
  res.jams = summarize_weighted(to_value_counts(total.jams));
  res.energy_per_station = summarize(std::span<const double>(total.energy));
  return res;
}

/// Runs trials [first, first + count) of a sweep, writing outcome
/// first + i to out[i].
using ChunkRunner = std::function<void(std::size_t first, std::size_t count,
                                       TrialOutcome* out)>;

/// The one Monte-Carlo driver. Trials are partitioned into chunks of
/// `chunk`, each advanced by `chunk_runner` (a batched engine's SoA
/// lockstep chunk, or one sequential trial); chunks are the parallel
/// work items and the unit of shutdown drain. Telemetry (one `span_name`
/// span per chunk, the request's trace id, mc.* counters) wraps each
/// chunk without touching any trial randomness, so trial k's outcome
/// depends only on (seed, k), never on the partition or the pool.
McResult run_chunks(const ChunkRunner& chunk_runner, std::size_t chunk,
                    const char* span_name, std::uint64_t n_for_energy,
                    const McConfig& config) {
  JAMELECT_EXPECTS(config.trials >= 1);
  JAMELECT_EXPECTS(chunk >= 1);
  const std::size_t num_chunks = (config.trials + chunk - 1) / chunk;
  const auto chunk_trials = [&](std::size_t c) {
    return std::min(chunk, config.trials - c * chunk);
  };

  // Orchestration telemetry: how wide this sweep actually fanned out
  // (pool workers + the participating caller) and how many chunks ran.
  // Observational only — chunk results derive from (seed, trial index).
  JAMELECT_OBS_GAUGE(
      "mc.parallel_width",
      config.parallel ? static_cast<double>(pool_for(config).size() + 1)
                      : 1.0);

  obs::SpanStore* const spans = config.spans;
  /// Runs chunk c (or skips it wholesale when a shutdown is draining
  /// the sweep); returns the number of trials completed — chunks are
  /// all-or-nothing, so partial results never truncate a trial mid-run.
  const auto run_chunk = [&](std::size_t c, TrialOutcome* out) -> std::size_t {
    if (shutdown_requested()) return 0;
    const std::size_t count = chunk_trials(c);
    // Chunks execute on pool worker threads: re-establish the request
    // lineage here so chunk / pool_task spans and profiler samples from
    // every worker carry the submitting request's trace id.
    const obs::ScopedTrace scoped(config.trace);
    const std::int64_t t0 = spans != nullptr ? spans->now_us() : 0;
    chunk_runner(c * chunk, count, out);
    if (spans != nullptr) {
      spans->record(span_name, "", t0, spans->now_us() - t0);
    }
    JAMELECT_OBS_COUNT("mc.parallel_chunks", 1);
    obs::prof_count(obs::ProfCounter::kChunks, 1);
    obs::prof_count(obs::ProfCounter::kTrials,
                    static_cast<std::int64_t>(count));
    for (std::size_t i = 0; i < count; ++i) {
      JAMELECT_OBS_COUNT("mc.trials", 1);
      JAMELECT_OBS_COUNT("mc.slots", out[i].slots);
      obs::prof_count(obs::ProfCounter::kSlots, out[i].slots);
    }
    return count;
  };

  if (config.keep_outcomes) {
    std::vector<TrialOutcome> outcomes(config.trials);
    // Written once per chunk by its own iteration, read only after the
    // parallel_for joins — no synchronization beyond the join.
    std::vector<std::uint8_t> ran(num_chunks, 0);
    const auto body = [&](std::size_t c) {
      ran[c] = run_chunk(c, outcomes.data() + c * chunk) > 0 ? 1 : 0;
    };
    if (config.parallel) {
      pool_for(config).parallel_for(num_chunks, body);
    } else {
      for (std::size_t c = 0; c < num_chunks; ++c) body(c);
    }
    std::size_t kept = 0;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      if (ran[c] == 0) continue;
      for (std::size_t i = 0; i < chunk_trials(c); ++i) {
        outcomes[kept++] = std::move(outcomes[c * chunk + i]);
      }
    }
    const bool interrupted = kept < config.trials;
    outcomes.resize(kept);
    McResult res = result_from_outcomes(std::move(outcomes), n_for_energy);
    res.interrupted = interrupted;
    return res;
  }

  // Streaming path: chunks fold into per-worker accumulators and never
  // exist all at once. Each worker reuses one chunk buffer, so a chunk
  // costs no allocation.
  struct Partial {
    TrialAccumulator acc;
    std::vector<TrialOutcome> buf;
  };
  const auto body = [&](Partial& part, std::size_t c) {
    part.buf.assign(chunk_trials(c), TrialOutcome{});
    if (run_chunk(c, part.buf.data()) == 0) return;
    obs::PhaseAccumulator prof;
    prof.start();
    for (const TrialOutcome& o : part.buf) {
      accumulate(part.acc, o, n_for_energy);
    }
    prof.stop(obs::Phase::kMerge);
  };
  const auto merge = [](Partial& into, Partial&& from) {
    merge_into(into.acc, std::move(from.acc));
  };
  Partial total;
  if (config.parallel) {
    total = pool_for(config).parallel_reduce(num_chunks, Partial{}, body,
                                             merge);
  } else {
    for (std::size_t c = 0; c < num_chunks; ++c) body(total, c);
  }
  return result_from_accumulator(total.acc, config.trials);
}

/// Probes `factory` for the batched path: the protocol must have a POD
/// kernel twin (batch_kernel_spec) and the factory must be pure — two
/// fresh instances must be state-identical, otherwise trial outcomes
/// would depend on factory call order and the kernel path (which
/// constructs from params, not via the factory) could diverge.
std::optional<BatchKernelSpec> probe_batch_factory(
    const UniformProtocolFactory& factory) {
  const auto probe = factory();
  if (probe == nullptr) return std::nullopt;
  const auto spec = batch_kernel_spec(*probe);
  if (!spec.has_value()) return std::nullopt;
  const auto second = factory();
  if (second == nullptr || !probe->state_equals(*second)) return std::nullopt;
  return spec;
}

/// Probes a run_cohort_mc sweep for the cohort lanes, which run one
/// shape only: strong CD, no observer, and a factory whose two fresh
/// draws are UniformStationAdapters in identical pristine state (not
/// done, not leader) over a paper kernel. Kernels always begin fresh
/// from their params, so a warm-started or stateful factory must take
/// the sequential path, as must weak CD (its Singles split cohorts) and
/// observers (the lanes have no per-slot hooks).
std::optional<CohortKernelSpec> probe_cohort_lanes(
    const std::function<StationProtocolPtr()>& prototype_factory,
    const EngineConfig& engine) {
  if (engine.cd != CdMode::kStrong || engine.observer != nullptr) {
    return std::nullopt;
  }
  const StationProtocolPtr a = prototype_factory();
  const StationProtocolPtr b = prototype_factory();
  if (a == nullptr || b == nullptr) return std::nullopt;
  const auto* adapter = dynamic_cast<const UniformStationAdapter*>(a.get());
  if (adapter == nullptr) return std::nullopt;
  if (a->done() || a->is_leader() || !a->state_equals(*b)) {
    return std::nullopt;
  }
  const auto kernel = batch_kernel_spec(adapter->protocol());
  if (!kernel.has_value()) return std::nullopt;
  if (const auto* p = std::get_if<PlainUniformParams>(&*kernel)) {
    return CohortKernelSpec{*p};
  }
  if (const auto* p = std::get_if<LeskParams>(&*kernel)) {
    return CohortKernelSpec{*p};
  }
  if (const auto* p = std::get_if<LesuParams>(&*kernel)) {
    return CohortKernelSpec{*p};
  }
  return std::nullopt;
}

/// Registers the batch-path rollup counters at zero so a run manifest
/// always shows them when the batch knob is on — a sweep that never
/// falls back (or never goes wide/scalar) reports an explicit 0 rather
/// than omitting the metric. The reason-labeled fallback counters
/// partition mc.batch_fallbacks (docs/OBSERVABILITY.md):
///   .protocol — the factory's protocol has no kernel twin, was warm-
///               started, or the factory is nondeterministic;
///   .observer — a telemetry observer needs the virtual path's hooks
///               (station engine only);
///   .cohort   — a run_cohort_mc sweep the cohort lanes do not run
///               (probe_cohort_lanes): weak CD, an observer, or a
///               prototype that is not a pristine UniformStationAdapter
///               over a paper kernel — e.g. Notification, a baseline,
///               or a warm-started factory.
void register_batch_counters() {
  JAMELECT_OBS_COUNT("mc.batch_fallbacks", 0);
  JAMELECT_OBS_COUNT("mc.batch_fallback.protocol", 0);
  JAMELECT_OBS_COUNT("mc.batch_fallback.observer", 0);
  JAMELECT_OBS_COUNT("mc.batch_fallback.cohort", 0);
  JAMELECT_OBS_COUNT("mc.batch_wide_slots", 0);
  JAMELECT_OBS_COUNT("mc.batch_scalar_slots", 0);
  JAMELECT_OBS_COUNT("mc.parallel_chunks", 0);
  JAMELECT_OBS_COUNT("mc.parallel_cache_reuse", 0);
}

/// One batched sweep dropped to the sequential path: bump the total
/// and the reason-labeled partition counter. An enum (not a counter
/// name) because JAMELECT_OBS_COUNT caches its counter id statically
/// per call site — a runtime name would collapse every reason into
/// whichever string reached the shared site first.
enum class BatchFallbackReason { kProtocol, kObserver, kCohort };

void count_batch_fallback(BatchFallbackReason reason) {
  JAMELECT_OBS_COUNT("mc.batch_fallbacks", 1);
  switch (reason) {
    case BatchFallbackReason::kProtocol:
      JAMELECT_OBS_COUNT("mc.batch_fallback.protocol", 1);
      break;
    case BatchFallbackReason::kObserver:
      JAMELECT_OBS_COUNT("mc.batch_fallback.observer", 1);
      break;
    case BatchFallbackReason::kCohort:
      JAMELECT_OBS_COUNT("mc.batch_fallback.cohort", 1);
      break;
  }
}

}  // namespace

McResult run_trials(const TrialRunner& runner, std::uint64_t n_for_energy,
                    const McConfig& config) {
  JAMELECT_EXPECTS(n_for_energy >= 1);
  // The trial rng is handed through untouched, so outcomes are the same
  // whatever telemetry the driver wraps around each one-trial chunk.
  const Rng base(config.seed);
  const ChunkRunner one_trial = [&runner, base](std::size_t first,
                                                std::size_t /*count*/,
                                                TrialOutcome* out) {
    *out = runner(base.child(first));
  };
  return run_chunks(one_trial, 1, "mc.trial", n_for_energy, config);
}

McResult run_aggregate_mc(const UniformProtocolFactory& factory,
                          const AdversarySpec& adversary, std::uint64_t n,
                          const McConfig& config) {
  AdversarySpec spec = adversary;
  spec.n = n;
  if (config.batch > 0) {
    register_batch_counters();
    if (const auto kernel = probe_batch_factory(factory)) {
      const Rng base(config.seed);
      const ChunkRunner chunk =
          [kernel = *kernel, spec, n, max_slots = config.max_slots,
           base](std::size_t first, std::size_t count, TrialOutcome* out) {
            run_batch_aggregate_trials(kernel, spec, {n, max_slots}, base,
                                       first, count, out);
          };
      return run_chunks(chunk, config.batch, "mc.batch", n, config);
    }
    count_batch_fallback(BatchFallbackReason::kProtocol);
  }
  const TrialRunner runner = [&factory, spec, n,
                              max_slots = config.max_slots](Rng rng) {
    auto protocol = factory();
    auto adv = make_adversary(spec, rng.child(0xad50));
    Rng sim_rng = rng.child(0x51e0);
    return run_aggregate(*protocol, *adv, {n, max_slots}, sim_rng);
  };
  return run_trials(runner, n, config);
}

McResult run_hybrid_mc(const UniformProtocolFactory& factory,
                       const AdversarySpec& adversary, std::uint64_t n,
                       const McConfig& config) {
  AdversarySpec spec = adversary;
  spec.n = n;
  if (config.batch > 0) {
    register_batch_counters();
    if (const auto kernel = probe_batch_factory(factory)) {
      const Rng base(config.seed);
      const ChunkRunner chunk =
          [kernel = *kernel, spec, n, max_slots = config.max_slots,
           base](std::size_t first, std::size_t count, TrialOutcome* out) {
            run_batch_hybrid_trials(kernel, spec, {n, max_slots}, base, first,
                                    count, out);
          };
      return run_chunks(chunk, config.batch, "mc.batch", n, config);
    }
    count_batch_fallback(BatchFallbackReason::kProtocol);
  }
  const TrialRunner runner = [&factory, spec, n,
                              max_slots = config.max_slots](Rng rng) {
    auto adv = make_adversary(spec, rng.child(0xad50));
    Rng sim_rng = rng.child(0x51e0);
    return run_hybrid_notification(factory, *adv, {n, max_slots}, sim_rng);
  };
  return run_trials(runner, n, config);
}

McResult run_station_mc(
    const std::function<StationProtocolPtr(StationId)>& station_factory,
    const AdversarySpec& adversary, std::uint64_t n, EngineConfig engine,
    const McConfig& config) {
  JAMELECT_EXPECTS(n >= 1);
  AdversarySpec spec = adversary;
  spec.n = n;
  if (config.batch > 0) {
    register_batch_counters();
    if (engine.observer != nullptr) {
      count_batch_fallback(BatchFallbackReason::kObserver);
    } else if (const auto kernel = station_batch_spec(station_factory, n)) {
      const ChunkRunner chunk =
          [kernel = *kernel, spec, engine,
           base = Rng(config.seed)](std::size_t first, std::size_t count,
                                    TrialOutcome* out) {
            run_batch_station_trials(kernel, spec, engine, base, first, count,
                                     out);
          };
      return run_chunks(chunk, config.batch, "mc.batch", n, config);
    } else {
      count_batch_fallback(BatchFallbackReason::kProtocol);
    }
  }
  const TrialRunner runner = [&station_factory, spec, n, engine](Rng rng) {
    std::vector<StationProtocolPtr> stations;
    stations.reserve(n);
    for (StationId i = 0; i < n; ++i) stations.push_back(station_factory(i));
    auto adv = make_adversary(spec, rng.child(0xad50));
    SlotEngine eng(std::move(stations), std::move(adv), rng.child(0x51e0),
                   engine);
    return eng.run();
  };
  return run_trials(runner, n, config);
}

McResult run_cohort_mc(
    const std::function<StationProtocolPtr()>& prototype_factory,
    const AdversarySpec& adversary, std::uint64_t n, EngineConfig engine,
    const McConfig& config) {
  JAMELECT_EXPECTS(n >= 1);
  AdversarySpec spec = adversary;
  spec.n = n;
  if (config.batch > 0) {
    register_batch_counters();
    if (const auto kernel = probe_cohort_lanes(prototype_factory, engine)) {
      const ChunkRunner chunk =
          [kernel = *kernel, spec, n, max_slots = engine.max_slots,
           base = Rng(config.seed)](std::size_t first, std::size_t count,
                                    TrialOutcome* out) {
            run_batch_cohort_trials(kernel, spec, {n, max_slots}, base, first,
                                    count, out);
          };
      return run_chunks(chunk, config.batch, "mc.batch", n, config);
    }
    count_batch_fallback(BatchFallbackReason::kCohort);
  }
  const TrialRunner runner = [&prototype_factory, spec, n, engine](Rng rng) {
    auto adv = make_adversary(spec, rng.child(0xad50));
    CohortEngine eng(prototype_factory(), n, std::move(adv),
                     rng.child(0x51e0), engine);
    return eng.run();
  };
  return run_trials(runner, n, config);
}

TrialOutcome replay_aggregate_trial(const UniformProtocolFactory& factory,
                                    const AdversarySpec& adversary,
                                    std::uint64_t n, const McConfig& config,
                                    std::size_t trial,
                                    obs::RunObserver* observer, Trace* trace) {
  JAMELECT_EXPECTS(trial < config.trials);
  JAMELECT_EXPECTS(n >= 1);
  AdversarySpec spec = adversary;
  spec.n = n;
  // Mirror run_aggregate_mc's runner exactly: trial randomness derives
  // from base.child(trial), adversary from child(0xad50), sim from
  // child(0x51e0). The observer and probe consume none of it.
  const Rng rng = Rng(config.seed).child(trial);
  auto protocol = factory();
  auto adv = make_adversary(spec, rng.child(0xad50));
  Rng sim_rng = rng.child(0x51e0);
  AggregateConfig agg;
  agg.n = n;
  agg.max_slots = config.max_slots;
  agg.observer = observer;
  if (observer != nullptr) {
    observer->begin_trial(trial);
    protocol->set_probe(observer);
  }
  const TrialOutcome out = run_aggregate(*protocol, *adv, agg, sim_rng, trace);
  if (observer != nullptr) {
    observer->end_trial(out.elected, out.slots, out.jams, out.transmissions);
  }
  return out;
}

TrialOutcome replay_cohort_trial(
    const std::function<StationProtocolPtr()>& prototype_factory,
    const AdversarySpec& adversary, std::uint64_t n, EngineConfig engine,
    const McConfig& config, std::size_t trial, obs::RunObserver* observer,
    Trace* trace) {
  JAMELECT_EXPECTS(trial < config.trials);
  JAMELECT_EXPECTS(n >= 1);
  AdversarySpec spec = adversary;
  spec.n = n;
  const Rng rng = Rng(config.seed).child(trial);
  auto prototype = prototype_factory();
  auto adv = make_adversary(spec, rng.child(0xad50));
  if (observer != nullptr) {
    observer->begin_trial(trial);
    prototype->set_probe(observer);
    engine.observer = observer;
  }
  CohortEngine eng(std::move(prototype), n, std::move(adv), rng.child(0x51e0),
                   engine);
  const TrialOutcome out = eng.run(trace);
  if (observer != nullptr) {
    observer->end_trial(out.elected, out.slots, out.jams, out.transmissions);
  }
  return out;
}

}  // namespace jamelect
