// Batched cohort engine — multi-trial cohort lanes in SoA lockstep.
//
// run_cohort_mc's sequential path runs one CohortEngine trial at a
// time: per slot, per cohort, a virtual transmit_probability() call
// and a from-scratch binomial_sample() (log1p/exp inversion walk or
// the full BTPE setup). This engine runs a whole chunk of trials as
// *lanes* stepped slot-by-slot in lockstep. Each lane holds a small
// fixed-capacity cohort table of POD protocol kernels
// (protocols/kernels.hpp) plus member counts; per slot the engine
// walks cohort positions across all lanes, resolves each cohort's
// Binomial(|cohort|, p) plan through a memoized BinomialSamplerCache
// (support/binomial_cache.hpp, keyed on (|cohort|, broadcast_u)), and
// batches each position's first uniform across lanes through a
// WideXoshiro group draw.
//
// Exactness: trial k's TrialOutcome is bit-identical to the sequential
// run_cohort_mc trial k for the same McConfig::seed — same per-trial
// stream (base.child(k).child(0x51e0)), same draw order (cohorts in
// table order, one group uniform then scalar remainder draws per
// cohort), same adversary derivation (child(0xad50)), same leader
// draws, regardless of lane count or pool width. Pinned by
// tests/cohort_batch_equivalence_test.cpp.
//
// Cohort-capacity overflow: lanes whose cohort table would exceed
// CohortBatchConfig::cohort_cap (possible under weak CD, where done
// cohorts accumulate frozen) retire to an unbounded scalar rerun of
// that trial from slot 0 with freshly derived streams — same outcome
// as if the lane had been sized large enough. Counted as
// engine.cohort.lane_overflow.
//
// Not supported here (the caller falls back to the sequential engine):
// telemetry observers and traces. Per-event cohort telemetry
// (engine.cohort.{merges,splits,runs}, peak_cohorts) is sequential-
// only; the batched path emits chunk-granularity counters instead
// (engine.batch.cohort_chunks, engine.cohort.binom_cache_*).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <variant>

#include "protocols/station.hpp"
#include "sim/adversary_spec.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/outcome.hpp"
#include "support/rng.hpp"

namespace jamelect {

/// Kernel parameter set for a cohort-batchable prototype. Only the
/// paper's uniform protocols qualify: the cohort engine's split/merge
/// mirror is written against UniformStationAdapter semantics, and the
/// baseline kernels (Willard, Nakano–Olariu, no-CD) ride their own
/// dedicated batch engines instead.
using CohortKernelSpec =
    std::variant<PlainUniformParams, LeskParams, LesuParams>;

/// Per-chunk configuration for run_cohort_batch_trials; mirrors
/// BatchConfig plus the CohortEngine knobs (cd, stop) and the lane
/// cohort-table capacity.
struct CohortBatchConfig {
  std::uint64_t n = 1;
  std::int64_t max_slots = 1'000'000;
  CdMode cd = CdMode::kStrong;
  StopRule stop = StopRule::kAllDone;
  /// Cohort-table capacity per lane (>= 1). Adapter-kernel protocols
  /// split at most once per trial — a Single slot separates the done
  /// listeners from the lone transmitter — so they peak at 2 cohorts
  /// and never overflow the default; 8 leaves headroom anyway. A cap
  /// of 1 forces the overflow rerun on the first split (used by tests
  /// to pin the retire-to-scalar path).
  std::size_t cohort_cap = 8;
};

/// Probes a run_cohort_mc prototype factory for the batched engine:
/// requires two fresh draws from the factory to be non-null
/// UniformStationAdapter instances in identical pristine state (not
/// done, not leader) wrapping a recognized paper kernel. Returns the
/// kernel params, or nullopt to fall back to the sequential engine.
[[nodiscard]] std::optional<CohortKernelSpec> cohort_batch_spec(
    const std::function<StationProtocolPtr()>& prototype_factory);

/// Runs trials [first, first + count) of a cohort sweep in SoA lanes,
/// writing trial first + i's outcome to out[i]. `base` is
/// Rng(McConfig::seed); all trial randomness derives from it and the
/// absolute trial index exactly as the sequential path's run_trials.
void run_cohort_batch_trials(const CohortKernelSpec& spec,
                             const AdversarySpec& adversary,
                             const CohortBatchConfig& config, const Rng& base,
                             std::size_t first, std::size_t count,
                             TrialOutcome* out);

}  // namespace jamelect
