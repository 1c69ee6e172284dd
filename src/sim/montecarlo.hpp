// Monte-Carlo harness: seeded, reproducible repeated trials with
// parallel fan-out, for all three engines.
//
// Reproducibility contract: trial k of a run with seed S derives all of
// its randomness from mix64(S, k) — results are independent of thread
// count, scheduling, and McConfig::batch (the batched engines reproduce
// the sequential ones trial for trial).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/span.hpp"
#include "sim/adversary_spec.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/hybrid.hpp"
#include "sim/outcome.hpp"
#include "support/stats.hpp"

namespace jamelect {

class ThreadPool;

struct McConfig {
  std::size_t trials = 100;
  std::uint64_t seed = 1;
  std::int64_t max_slots = 1'000'000;
  /// Run trials on the global thread pool (deterministic either way).
  bool parallel = true;
  /// Batched kernel engine (sim/batch.hpp): when > 0, run_aggregate_mc
  /// and run_hybrid_mc advance `batch` trials per work item in SoA
  /// lockstep with devirtualized protocol kernels and cached slot
  /// probabilities — for kernelizable protocols (LESK, LESU, plain
  /// uniform, Willard, Nakano–Olariu, NoCdElection); run_station_mc
  /// runs kernelizable station protocols (ARSS) through devirtualized
  /// trial chunks (sim/station_batch.hpp); run_cohort_mc runs strong-
  /// CD sweeps of paper-protocol prototypes (LESK, LESU, plain uniform)
  /// as one-cohort lanes with memoized binomial plans (sim/batch.hpp).
  /// Anything else falls back to the sequential path, counted by
  /// mc.batch_fallbacks and the reason-labeled mc.batch_fallback.*
  /// partition. Per-trial outcomes are bit-identical to batch == 0
  /// (same mix64(seed, k) derivation per trial), so this is purely a
  /// throughput knob. The aggregate, hybrid and cohort lanes draw from
  /// SIMD-wide xoshiro streams, with the lane engine picked by the
  /// adversary policy (sim/batch.hpp).
  std::size_t batch = 0;
  /// Pool to fan trials out on when `parallel` (nullptr = the
  /// process-wide global_pool()). Non-owning; must outlive the run.
  /// Results are bit-identical for every pool size — this exists so
  /// callers (and the scheduling-determinism tests) can pin an exact
  /// worker count without touching JAMELECT_THREADS.
  ThreadPool* pool = nullptr;
  /// Materialize McResult::outcomes (per-trial detail). Off by default:
  /// the streaming path aggregates into O(distinct-values) count maps
  /// per thread, so million-trial sweeps don't hold a TrialOutcome per
  /// trial in memory. Summaries are identical either way.
  bool keep_outcomes = false;
  /// Optional span store (obs/span.hpp): each chunk of the run is
  /// recorded as one span — "mc.batch" per batched chunk, "mc.trial" per
  /// sequential trial (a one-trial chunk). Non-owning; must outlive the
  /// run.
  obs::SpanStore* spans = nullptr;
  /// Request lineage: every span the run records (mc.trial, mc.batch,
  /// pool_task) is tagged with this id via obs::ScopedTrace, so one
  /// service request reassembles into one Chrome-trace tree. Invalid
  /// (the default) = untraced. Purely observational.
  obs::TraceId trace{};
};

/// Aggregated view over the trials of one configuration.
struct McResult {
  std::size_t trials = 0;
  /// True when a cooperative shutdown (support/shutdown.hpp) drained
  /// the run early: `trials` is then the number of trials that actually
  /// completed (< McConfig::trials) and every summary covers exactly
  /// those trials — completed trials are never truncated mid-slot.
  /// Interrupted results must not be cached or compared across runs:
  /// WHICH trials completed depends on scheduling at the instant of the
  /// signal. Always false when no shutdown was requested.
  bool interrupted = false;
  std::size_t successes = 0;
  RateInterval success = {0, 0, 0};  ///< Wilson 95% CI of success rate
  /// Slots-to-elect over ALL trials; failures are right-censored at
  /// max_slots (so with failures present, `slots.mean` is a lower
  /// bound on the true mean).
  Summary slots;
  /// Slots over successful trials only (empty summary if none).
  Summary slots_on_success;
  Summary jams;
  /// Mean per-station transmissions ("energy").
  Summary energy_per_station;
  /// Per-trial detail, trial-indexed; empty unless
  /// McConfig::keep_outcomes was set. On an interrupted run the vector
  /// is compacted to the completed trials, in trial order.
  std::vector<TrialOutcome> outcomes;
};

/// One full trial: build everything from the trial-local rng, run, and
/// return the outcome.
using TrialRunner = std::function<TrialOutcome(Rng trial_rng)>;

/// Generic driver: runs `runner` `config.trials` times and aggregates.
/// Each trial is a one-trial chunk of the same chunk driver the batched
/// engines use.
[[nodiscard]] McResult run_trials(const TrialRunner& runner,
                                  std::uint64_t n_for_energy,
                                  const McConfig& config);

/// Aggregate engine (strong-CD, uniform protocols).
[[nodiscard]] McResult run_aggregate_mc(const UniformProtocolFactory& factory,
                                        const AdversarySpec& adversary,
                                        std::uint64_t n, const McConfig& config);

/// Hybrid engine (weak-CD Notification over a uniform inner protocol).
[[nodiscard]] McResult run_hybrid_mc(const UniformProtocolFactory& factory,
                                     const AdversarySpec& adversary,
                                     std::uint64_t n, const McConfig& config);

/// Per-station engine; `station_factory(i)` builds station i.
[[nodiscard]] McResult run_station_mc(
    const std::function<StationProtocolPtr(StationId)>& station_factory,
    const AdversarySpec& adversary, std::uint64_t n, EngineConfig engine,
    const McConfig& config);

/// Cohort-compressed engine (sim/cohort.hpp): n stations all built as
/// clones of `prototype_factory()`. Distributionally equivalent to
/// run_station_mc with identical stations, at O(#cohorts) per slot.
[[nodiscard]] McResult run_cohort_mc(
    const std::function<StationProtocolPtr()>& prototype_factory,
    const AdversarySpec& adversary, std::uint64_t n, EngineConfig engine,
    const McConfig& config);

/// Replays trial `trial` of the run_aggregate_mc(factory, adversary, n,
/// config) sweep with telemetry attached: `observer` (if non-null)
/// receives begin/end-trial markers, per-slot events, and protocol
/// phase events; `trace` (if non-null) records the slot stream. The
/// returned outcome is bit-identical to the original trial's — trial
/// randomness derives only from (config.seed, trial), and observers
/// consume no randomness.
[[nodiscard]] TrialOutcome replay_aggregate_trial(
    const UniformProtocolFactory& factory, const AdversarySpec& adversary,
    std::uint64_t n, const McConfig& config, std::size_t trial,
    obs::RunObserver* observer, Trace* trace = nullptr);

/// Replays trial `trial` of the run_cohort_mc(prototype_factory,
/// adversary, n, engine, config) sweep; same contract as
/// replay_aggregate_trial, plus cohort split/merge events.
[[nodiscard]] TrialOutcome replay_cohort_trial(
    const std::function<StationProtocolPtr()>& prototype_factory,
    const AdversarySpec& adversary, std::uint64_t n, EngineConfig engine,
    const McConfig& config, std::size_t trial, obs::RunObserver* observer,
    Trace* trace = nullptr);

}  // namespace jamelect
