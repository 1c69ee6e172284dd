// Batched Monte-Carlo engine: B trials in structure-of-arrays lockstep.
//
// The sequential MC path (sim/montecarlo.cpp run_trials) simulates one
// trial at a time, paying per slot a virtual estimate()/
// transmit_probability()/observe() dispatch plus a fresh log1p + 2*exp
// chain in slot_probabilities. This engine removes both costs for the
// kernelizable protocols (protocols/kernels.hpp): a chunk of B trials
// advances in lockstep over parallel state arrays — one POD kernel and
// one xoshiro256** stream per lane, stepped kWideLanes at a time
// (support/wide_rng.hpp + sim/batch_wide.hpp) — and all lanes in a chunk
// share one SlotProbCache (support/slot_prob_cache.hpp), so a slot costs
// a cached threshold lookup, one vector draw and a branch-free
// classification. Finished lanes are swap-removed, keeping the inner
// loop dense.
//
// Bit-identity contract: lane k of a chunk starting at trial `first`
// derives its randomness exactly as the sequential path does — trial
// rng base.child(first + k), adversary from .child(0xad50), simulation
// draws from .child(0x51e0) — and the kernels and the cache reproduce
// the virtual classes' floating-point behavior expression-for-
// expression. Each TrialOutcome this engine writes is therefore
// bit-identical to the one run_aggregate_mc / run_hybrid_mc computes
// for the same (seed, trial index); tests/batch_equivalence_test.cpp
// enforces this for both CD modes. Consequently any batch trial can be
// replayed with full telemetry via replay_aggregate_trial.
//
// Every policy's jams come from one LaneAdversaryBank
// (sim/lane_adversary.hpp): lane-invariant policies (none, saturating,
// periodic, pulse, interval_buster) share one adversary per chunk, and
// the adaptive built-ins (bernoulli, single_denial, collision_forcer)
// run on per-lane SoA adversary state. Either way the contract above
// holds bit for bit — tests/wide_batch_test.cpp and
// tests/batch_adaptive_equivalence_test.cpp lock batched == sequential
// on both wide backends (AVX2 and the portable 4-wide fallback
// selected by JAMELECT_FORCE_SCALAR=1).
//
// Entry point for users: set McConfig::batch — run_aggregate_mc and
// run_hybrid_mc probe their factory with batch_kernel_spec() and fall
// back to the sequential path for protocols with no kernel twin.
//
// The cohort lanes (run_batch_cohort_trials) are the strong-CD slice of
// run_cohort_mc: a UniformStationAdapter over a paper kernel behaves as
// one cohort until its first clean Single, which ends the trial, so a
// lane is one kernel plus one memoized Binomial(n, p(u)) count per slot
// (support/binomial_cache.hpp). run_cohort_mc sends everything else —
// weak CD, an observer, any other prototype — to the sequential
// CohortEngine; tests/cohort_batch_equivalence_test.cpp pins the lanes
// to it bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <variant>

#include "baselines/nakano_olariu.hpp"
#include "baselines/nocd_election.hpp"
#include "baselines/willard.hpp"
#include "protocols/lesk.hpp"
#include "protocols/lesu.hpp"
#include "protocols/plain_uniform.hpp"
#include "protocols/uniform.hpp"
#include "sim/adversary_spec.hpp"
#include "sim/outcome.hpp"
#include "support/rng.hpp"

namespace jamelect {

/// Parameter pack identifying which POD kernel impersonates a protocol
/// (paper kernels in protocols/kernels.hpp, evaluation baselines in
/// baselines/baseline_kernels.hpp).
using BatchKernelSpec =
    std::variant<PlainUniformParams, LeskParams, LesuParams, WillardParams,
                 NakanoOlariuParams, NoCdElectionParams>;

/// Probes a freshly constructed protocol instance for a kernel twin.
/// Returns nullopt — i.e. "use the virtual fallback" — for protocol
/// types without a kernel, and for recognized types whose instance is
/// not in its initial state (e.g. a warm-started LESK whose u has
/// already moved: kernels always start fresh from the params).
[[nodiscard]] std::optional<BatchKernelSpec> batch_kernel_spec(
    const UniformProtocol& prototype);

struct BatchConfig {
  std::uint64_t n = 1;
  std::int64_t max_slots = 1'000'000;
};

/// Runs trials [first, first + count) of the run_aggregate_mc sweep
/// whose per-trial rng base is `base` (= Rng(McConfig::seed)), writing
/// outcome i to out[i]. Strong-CD aggregate semantics, bit-identical
/// to run_aggregate per trial.
void run_batch_aggregate_trials(const BatchKernelSpec& spec,
                                const AdversarySpec& adversary,
                                const BatchConfig& config, const Rng& base,
                                std::size_t first, std::size_t count,
                                TrialOutcome* out);

/// Same, for the weak-CD hybrid Notification engine (run_hybrid_mc /
/// run_hybrid_notification). Requires config.n >= 3.
void run_batch_hybrid_trials(const BatchKernelSpec& spec,
                             const AdversarySpec& adversary,
                             const BatchConfig& config, const Rng& base,
                             std::size_t first, std::size_t count,
                             TrialOutcome* out);

/// The kernels a strong-CD cohort lane can run: the paper's uniform
/// protocols (the baselines keep their aggregate and hybrid lanes).
using CohortKernelSpec =
    std::variant<PlainUniformParams, LeskParams, LesuParams>;

/// Same, for run_cohort_mc over a pristine UniformStationAdapter
/// wrapping `spec`'s protocol, under strong CD. Bit-identical per trial
/// to the sequential CohortEngine for either stop rule: both end a
/// trial on its first clean Single.
void run_batch_cohort_trials(const CohortKernelSpec& spec,
                             const AdversarySpec& adversary,
                             const BatchConfig& config, const Rng& base,
                             std::size_t first, std::size_t count,
                             TrialOutcome* out);

/// Byte budget of one thread's batch memos: its SlotProbCaches and its
/// BinomialSamplerCache. Memo entries are pure functions of (n, u), so
/// the engines keep them warm across chunks; a chunk that starts with
/// the thread's memos above this size first drops them all. Eviction
/// only ever happens at a chunk start, so it never moves a result.
inline constexpr std::size_t kMemoBudgetBytes = std::size_t{4} << 20;

/// Process-wide reading of the batch memos since start-up, also
/// exported as engine.memo.bytes and engine.memo.evictions.
struct MemoStats {
  std::uint64_t peak_bytes = 0;  ///< largest size one thread's memos reached
  std::uint64_t evictions = 0;   ///< chunk starts that dropped a thread's memos
};
[[nodiscard]] MemoStats memo_stats() noexcept;

}  // namespace jamelect
