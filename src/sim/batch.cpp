#include "sim/batch.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "baselines/baseline_kernels.hpp"
#include "channel/channel.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "protocols/interval_partition.hpp"
#include "protocols/kernels.hpp"
#include "sim/batch_wide.hpp"
#include "sim/lane_adversary.hpp"
#include "support/binomial_cache.hpp"
#include "support/expects.hpp"
#include "support/math.hpp"
#include "support/slot_prob_cache.hpp"
#include "support/wide_rng.hpp"

namespace jamelect {

namespace {

/// Params -> kernel type map for std::visit dispatch.
template <class Params>
struct KernelFor;
template <>
struct KernelFor<PlainUniformParams> {
  using type = kernels::UniformKernel;
};
template <>
struct KernelFor<LeskParams> {
  using type = kernels::LeskKernel;
};
template <>
struct KernelFor<LesuParams> {
  using type = kernels::LesuKernel;
};
template <>
struct KernelFor<WillardParams> {
  using type = kernels::WillardKernel;
};
template <>
struct KernelFor<NakanoOlariuParams> {
  using type = kernels::NakanoOlariuKernel;
};
template <>
struct KernelFor<NoCdElectionParams> {
  using type = kernels::NoCdKernel;
};

/// Process-wide memo readings behind memo_stats(): the largest size one
/// thread's memos reached, and the chunk starts that dropped them.
std::atomic<std::uint64_t> g_memo_peak_bytes{0};
std::atomic<std::uint64_t> g_memo_evictions{0};

/// Per-thread reusable chunk state for the multi-core orchestrator:
/// the memos every batch engine draws on.
///
/// SlotProbCache entries and BinomialPlans are pure functions of
/// (n, u) — protocol- and trial-independent — so warm memos from one
/// chunk answer the next chunk's lookups without redoing the exp/log
/// chains, and reuse can never change a result. Each worker thread
/// owns one workspace (thread_local), so chunks sharded across the
/// ThreadPool touch no shared mutable state: bit-identity across
/// thread counts is structural, and TSAN has nothing to watch here. A
/// small LRU of slot caches keyed by n covers sweeps that interleave
/// station counts (the hybrid engine uses n and n - 1 in one chunk).
///
/// Memory: LESU's u is on no lattice, so every new estimate adds
/// entries for good. begin_chunk() bounds that: a chunk that starts
/// with the memos above kMemoBudgetBytes drops them all first. The
/// cohort lanes hold plan pointers across lookups within a slot, so
/// nothing is ever dropped mid-chunk; a chunk may overshoot the budget
/// by what it adds itself.
///
/// Counter discipline: caches outlive chunks, so the engine rollup
/// must emit per-chunk DELTAS of the cache counters, not totals —
/// the emit functions track the last-emitted watermark per cache.
class BatchWorkspace {
 public:
  /// Opens a chunk: drops every memo when they hold more than
  /// kMemoBudgetBytes. Call before taking any cache reference.
  void begin_chunk() {
    if (bytes() <= kMemoBudgetBytes) return;
    entries_.clear();
    plans_.clear();
    g_memo_evictions.fetch_add(1, std::memory_order_relaxed);
    JAMELECT_OBS_COUNT("engine.memo.evictions", 1);
  }

  SlotProbCache& cache(std::uint64_t n) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i]->cache.n() == n) {
        if (i != 0) {
          std::rotate(entries_.begin(),
                      entries_.begin() + static_cast<std::ptrdiff_t>(i),
                      entries_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        }
        JAMELECT_OBS_COUNT("mc.parallel_cache_reuse", 1);
        return entries_.front()->cache;
      }
    }
    if (entries_.size() >= kMaxCaches) entries_.pop_back();
    entries_.insert(entries_.begin(), std::make_unique<Entry>(n));
    return entries_.front()->cache;
  }

  /// The cohort lanes' plan cache, shared by every chunk this worker
  /// runs (reuse across configs and n is sound for the same reason).
  BinomialSamplerCache& plans() { return plans_; }

  /// Emits the SlotProbCache effectiveness rollup accrued since the
  /// previous call (hits = lookups - misses; dense_hits is the subset
  /// of hits answered by the lattice index instead of a hash probe).
  void emit_cache_counters() {
    for (auto& e : entries_) {
      const std::uint64_t lookups = e->cache.lookups();
      const std::uint64_t misses = e->cache.misses();
      const std::uint64_t dense = e->cache.dense_hits();
      JAMELECT_OBS_COUNT(
          "engine.batch.cache_lookups",
          static_cast<std::int64_t>(lookups - e->lookups_seen));
      JAMELECT_OBS_COUNT(
          "engine.batch.cache_hits",
          static_cast<std::int64_t>((lookups - misses) -
                                    (e->lookups_seen - e->misses_seen)));
      JAMELECT_OBS_COUNT("engine.batch.cache_dense_hits",
                         static_cast<std::int64_t>(dense - e->dense_seen));
      JAMELECT_OBS_COUNT("engine.batch.cache_misses",
                         static_cast<std::int64_t>(misses - e->misses_seen));
      // Mirror for the profiler, so a manifest's `profile` carries the
      // hit rate beside the cache_lookup time it explains.
      obs::prof_count(obs::ProfCounter::kCacheLookups,
                      static_cast<std::int64_t>(lookups - e->lookups_seen));
      obs::prof_count(obs::ProfCounter::kCacheHits,
                      static_cast<std::int64_t>((lookups - misses) -
                                                (e->lookups_seen -
                                                 e->misses_seen)));
      e->lookups_seen = lookups;
      e->misses_seen = misses;
      e->dense_seen = dense;
    }
    record_peak();
  }

  /// Same for the plan cache, as engine.cohort.binom_cache_*.
  void emit_plan_counters() {
    const std::uint64_t lookups = plans_.lookups();
    const std::uint64_t misses = plans_.misses();
    const std::uint64_t dense = plans_.dense_hits();
    JAMELECT_OBS_COUNT(
        "engine.cohort.binom_cache_hits",
        static_cast<std::int64_t>((lookups - plan_lookups_seen_) -
                                  (misses - plan_misses_seen_)));
    JAMELECT_OBS_COUNT("engine.cohort.binom_cache_misses",
                       static_cast<std::int64_t>(misses - plan_misses_seen_));
    JAMELECT_OBS_COUNT("engine.cohort.binom_cache_dense_hits",
                       static_cast<std::int64_t>(dense - plan_dense_seen_));
    plan_lookups_seen_ = lookups;
    plan_misses_seen_ = misses;
    plan_dense_seen_ = dense;
    record_peak();
  }

 private:
  struct Entry {
    explicit Entry(std::uint64_t n) : cache(n) {}
    SlotProbCache cache;
    std::uint64_t lookups_seen = 0;
    std::uint64_t misses_seen = 0;
    std::uint64_t dense_seen = 0;
  };
  static constexpr std::size_t kMaxCaches = 8;

  [[nodiscard]] std::size_t bytes() const noexcept {
    std::size_t total = plans_.bytes();
    for (const auto& e : entries_) total += e->cache.bytes();
    return total;
  }

  /// Folds this chunk's memo size into the thread's and the process's
  /// peak (engine.memo.bytes).
  void record_peak() {
    const std::uint64_t now = bytes();
    if (now <= peak_) return;
    peak_ = now;
    std::uint64_t seen = g_memo_peak_bytes.load(std::memory_order_relaxed);
    while (seen < now && !g_memo_peak_bytes.compare_exchange_weak(
                             seen, now, std::memory_order_relaxed)) {
    }
    JAMELECT_OBS_GAUGE("engine.memo.bytes",
                       static_cast<double>(std::max(seen, now)));
  }

  std::vector<std::unique_ptr<Entry>> entries_;
  BinomialSamplerCache plans_;
  std::uint64_t plan_lookups_seen_ = 0;
  std::uint64_t plan_misses_seen_ = 0;
  std::uint64_t plan_dense_seen_ = 0;
  std::uint64_t peak_ = 0;  ///< this thread's largest memo size
};

[[nodiscard]] BatchWorkspace& local_batch_workspace() {
  thread_local BatchWorkspace workspace;
  return workspace;
}

/// SIMD-wide strong-CD aggregate lanes: the SoA mirror of
/// run_aggregate (sim/aggregate.cpp) — one uniform() per slot and one
/// below(n) on election per lane, in the same per-lane order — with
/// every slot advancing all lanes through one fused primitive
/// (sim/batch_wide.hpp): a vector xoshiro step, branch-free
/// classification against cached thresholds, and masked accumulator
/// updates. Finished lanes retire in a post-sweep compaction pass;
/// lanes are mutually independent within a slot, so retirement order
/// cannot change a result.
///
/// The jams come from a LaneAdversaryBank, for every policy, and the
/// loop branches only on how they fall across the live lanes:
///  * none jammed — the clean primitive on the cached thresholds;
///  * all jammed — the same primitive on a constant all-zero threshold
///    array;
///  * some jammed — the same primitive on copies of c_null and c_single
///    with 0.0 for every jammed lane.
/// This threshold zeroing is exact: to_uniform returns r in [0, 1), so
/// r < 0.0 is false and a jammed lane classifies as Collision — its
/// draw is consumed (the sequential engine draws and discards), nothing
/// is added to nulls or singles, exp_tx is still added, and LESK's u
/// takes the +inc step, which is exactly LeskKernel::step(kCollision).
///
/// Per-lane nulls/singles/transmissions live in SoA accumulators; slots
/// are a chunk-shared scalar (lockstep), jams a per-lane count, and
/// collisions fall out as slots - nulls - singles. Pad lanes (count
/// or active not a multiple of kWideLanes) carry valid-but-ignored
/// state: they advance with their group and are never finalized.
template <class Kernel>
void aggregate_lanes_wide(const typename Kernel::Params& params,
                          const AdversarySpec& spec, const BatchConfig& config,
                          const Rng& base, std::size_t first, std::size_t count,
                          TrialOutcome* out) {
  JAMELECT_EXPECTS(config.n >= 1);
  JAMELECT_EXPECTS(config.max_slots >= 1);
  constexpr bool kIsUniform = std::is_same_v<Kernel, kernels::UniformKernel>;
  constexpr bool kIsLesk = std::is_same_v<Kernel, kernels::LeskKernel>;
  // Everything that is neither a fixed exponent nor a LESK lattice walk
  // (LESU and the baseline kernels) steps scalar off the vector-
  // classified states; the only contract is that done() flips exactly
  // on a clean Single (retirement keys on the classified state).
  constexpr bool kIsGeneric = !kIsUniform && !kIsLesk;

  LaneAdversaryBank bank(spec, base, first, count);
  const std::uint64_t n = config.n;
  BatchWorkspace& workspace = local_batch_workspace();
  workspace.begin_chunk();
  SlotProbCache& cache = workspace.cache(n);
  double lesk_inc = 0.0;
  if constexpr (kIsLesk) {
    lesk_inc = Kernel(params).inc;
    // LESK's u moves on the {-1, +inc} lattice with 1.0 an (almost
    // always exact) multiple of inc, so steady-state lookups hit the
    // dense index.
    cache.set_lattice_step(lesk_inc);
  }

  const wide::SlotOps& ops = wide::slot_ops(active_wide_isa());
  WideXoshiro rng(count);
  const std::size_t padded = rng.padded_lanes();

  std::vector<double> c_null(padded), c_single(padded), exp_tx(padded);
  std::vector<double> c_null_jam(padded), c_single_jam(padded);
  const std::vector<double> zeros(padded, 0.0);
  std::vector<double> transmissions(padded, 0.0);
  std::vector<std::int64_t> nulls(padded, 0), singles(padded, 0);
  std::vector<std::int64_t> jams(padded, 0);
  std::vector<std::int64_t> states(padded, 0);
  std::vector<std::uint8_t> jam(padded, 0);
  std::vector<std::uint32_t> lane_trial(count);
  std::vector<double> us;      // non-Uniform: per-lane broadcast exponent
  std::vector<Kernel> kerns;   // generic kernels: full state per lane
  if constexpr (!kIsUniform) {
    us.assign(padded, Kernel(params).broadcast_u());
  }
  if constexpr (kIsGeneric) kerns.assign(count, Kernel(params));

  for (std::size_t k = 0; k < count; ++k) {
    // Lane k's sim stream: the exact seed derivation of the sequential
    // path — base.child(first + k).child(0x51e0).
    rng.seed_lane(k, base.child(first + k).child(0x51e0).seed());
    lane_trial[k] = static_cast<std::uint32_t>(k);
  }

  if constexpr (kIsUniform) {
    // One u forever: fill the thresholds once, never refresh.
    const SlotProbCache::Entry e = cache.lookup(Kernel(params).broadcast_u());
    std::fill(c_null.begin(), c_null.end(), e.c_null);
    std::fill(c_single.begin(), c_single.end(), e.c_single);
    std::fill(exp_tx.begin(), exp_tx.end(), e.exp_tx);
  } else {
    cache.lookup_lanes(us.data(), padded, c_null.data(), c_single.data(),
                       exp_tx.data());
  }

  const wide::LaneBlock block{rng.plane(0),     rng.plane(1),
                              rng.plane(2),     rng.plane(3),
                              c_null.data(),    c_single.data(),
                              exp_tx.data(),    transmissions.data(),
                              nulls.data(),     singles.data(),
                              states.data()};
  wide::LaneBlock jam_block = block;
  jam_block.c_null = c_null_jam.data();
  jam_block.c_single = c_single_jam.data();
  wide::LaneBlock all_jam_block = block;
  all_jam_block.c_null = zeros.data();
  all_jam_block.c_single = zeros.data();

  std::size_t active = count;
  std::int64_t slots_done = 0;  // == every live lane's slot count
  std::int64_t slots_total = 0;

  const auto finalize = [&](std::size_t lane, bool elected) {
    TrialOutcome o;
    o.slots = slots_done;
    o.jams = jams[lane];
    o.nulls = nulls[lane];
    o.singles = singles[lane];
    o.collisions = slots_done - nulls[lane] - singles[lane];
    o.transmissions = transmissions[lane];
    if (elected) {
      o.elected = true;
      o.all_done = true;
      o.unique_leader = true;
      o.leader = rng.below_lane(lane, n);
    }
    out[lane_trial[lane]] = o;
  };

  const auto refresh_thresholds = [&] {
    if constexpr (kIsGeneric) {
      for (std::size_t lane = 0; lane < active; ++lane) {
        us[lane] = kerns[lane].broadcast_u();
      }
    }
    const std::size_t groups = (active + kWideLanes - 1) / kWideLanes;
    cache.lookup_lanes(us.data(), groups * kWideLanes, c_null.data(),
                       c_single.data(), exp_tx.data());
  };

  // Phase attribution (batched locally, one flush per chunk): the
  // bank's step and observe plus the fused slot primitives are
  // `classify` (the primitives include the RNG advance — draw and
  // classification are one pass on this path), threshold refreshes are
  // `cache_lookup`, and generic kernel stepping plus retirement
  // compaction are `lattice_update`. Off = one dead branch per section;
  // never touches the draw sequence.
  obs::PhaseAccumulator prof;

  for (Slot slot = 0; slot < config.max_slots && active > 0; ++slot) {
    slots_total += static_cast<std::int64_t>(active);
    ++slots_done;
    const std::size_t groups = (active + kWideLanes - 1) / kWideLanes;
    prof.start();
    const LaneAdversaryBank::Jams jammed = bank.step(jam.data(), active);

    const wide::LaneBlock* slot_block = &block;
    if (jammed == LaneAdversaryBank::Jams::kAll) {
      // No lane can retire, so the compaction pass below never runs.
      for (std::size_t k = 0; k < active; ++k) ++jams[k];
      slot_block = &all_jam_block;
    } else if (jammed == LaneAdversaryBank::Jams::kSome) {
      // Pad lanes keep their thresholds: their jam bits are stale.
      for (std::size_t k = 0; k < groups * kWideLanes; ++k) {
        const bool jk = k < active && jam[k] != 0;
        c_null_jam[k] = jk ? 0.0 : c_null[k];
        c_single_jam[k] = jk ? 0.0 : c_single[k];
        jams[k] += jk ? 1 : 0;
      }
      slot_block = &jam_block;
    }
    bool any_single;
    if constexpr (kIsLesk) {
      any_single = ops.clean_slot_lesk(*slot_block, us.data(), lesk_inc,
                                       groups * kWideLanes);
    } else {
      any_single = ops.clean_slot(*slot_block, groups * kWideLanes);
    }
    bank.observe(states.data(), active);
    prof.stop(obs::Phase::kClassify);
    if constexpr (kIsGeneric) {
      // Generic kernels (LESU's phase machine, the baselines' search /
      // sweep automata) are not lattice walks — run them scalar per
      // lane off the vector-classified states.
      for (std::size_t lane = 0; lane < active; ++lane) {
        kerns[lane].step(static_cast<ChannelState>(states[lane]));
      }
      prof.stop(obs::Phase::kLatticeUpdate);
    }

    if (any_single) {
      // Every kernel on this path elects exactly on a clean Single, so
      // the classified state alone decides retirement. Re-examine a
      // moved lane before advancing (it may have elected this slot too).
      for (std::size_t lane = 0; lane < active;) {
        if (states[lane] != 1) {
          ++lane;
          continue;
        }
        finalize(lane, true);
        --active;
        if (lane != active) {
          rng.move_lane(lane, active);
          bank.move_lane(lane, active);
          transmissions[lane] = transmissions[active];
          nulls[lane] = nulls[active];
          singles[lane] = singles[active];
          jams[lane] = jams[active];
          states[lane] = states[active];
          lane_trial[lane] = lane_trial[active];
          if constexpr (!kIsUniform) us[lane] = us[active];
          if constexpr (kIsGeneric) kerns[lane] = kerns[active];
        }
      }
      prof.stop(obs::Phase::kLatticeUpdate);
    }

    if constexpr (!kIsUniform) {
      if (active > 0) {
        refresh_thresholds();
        prof.stop(obs::Phase::kCacheLookup);
      }
    }
  }
  // Right-censored lanes: budget exhausted without election.
  for (std::size_t lane = 0; lane < active; ++lane) finalize(lane, false);
  JAMELECT_OBS_COUNT("engine.batch.aggregate_chunks", 1);
  JAMELECT_OBS_COUNT("engine.batch.slots", slots_total);
  JAMELECT_OBS_COUNT("mc.batch_wide_slots", slots_total);
  workspace.emit_cache_counters();
}

/// SIMD-wide weak-CD hybrid Notification lanes: the SoA mirror of
/// run_hybrid_notification (sim/hybrid.cpp).
///
/// Lanes stay partitioned by phase — [0, b1) P1, [b1, b2) P2, [b2, b3)
/// P3, [b3, active) P4 — and the slot's interval set fixes what each
/// phase does in it, so every phase range takes one role for the whole
/// slot and runs as one contiguous pass with no per-lane phase switch:
///
///         C1                  C2                   C3       padding
///   P1    category at n       idle                 idle     idle
///   P2    Bernoulli (l_a)     category at n - 1    idle     idle
///   P3    fixed count n - 2   Bernoulli (s_a)      fixed 1  idle
///   P4    idle                idle                 fixed 1  idle
///
/// A category role is the aggregate lanes' machinery: lookup_lanes,
/// then one fused classify (+ LESK lattice step) primitive over the
/// range. A Bernoulli role reads p from the cache entry (the same
/// transmit_probability(u) double) and compares a masked draw r < p;
/// p <= 0 and p >= 1 draw nothing, as in Rng::bernoulli. Fixed and idle
/// roles draw nothing.
///
/// One kernel per lane suffices: every kernel the sequential engine
/// consults is rebuilt at the start of its interval (P1's and P2's at
/// each C1 start, P2's and P3's at each C2 start), and its two clones
/// (l_a at P1 -> P2, s_a at P2 -> P3) continue the lane's live kernel
/// after one Collision step. No kernel is ever shown a Single.
///
/// Phases change only on the events that fire them — a Single of P1 in
/// C1, of P2 in C2 or of P3 in C3, and a Null of P4 in C1 (done) — and
/// a changing lane swaps with the last lane of its range, which moves
/// the boundary past it. A swap carries everything the lane owns: its
/// rng stream, adversary bank state, kernel and accumulators.
///
/// Exactness: a lane draws at most once per slot, at the point of its
/// per-trial stream the sequential engine would, and every double is
/// the sequential engine's expression; moves only happen after the
/// slot's draws and the bank's observe, so lane order never reaches a
/// result. Idle slots add nothing to transmissions (x + 0.0 == x for
/// the non-negative sums here). Per-lane nulls/singles/jams/
/// transmissions are SoA accumulators, slots a chunk scalar, and
/// collisions fall out as slots - nulls - singles.
template <class Kernel>
void hybrid_lanes_wide(const typename Kernel::Params& params,
                       const AdversarySpec& spec, const BatchConfig& config,
                       const Rng& base, std::size_t first, std::size_t count,
                       TrialOutcome* out) {
  JAMELECT_EXPECTS(config.n >= 3);
  JAMELECT_EXPECTS(config.max_slots >= 1);
  constexpr bool kIsLesk = std::is_same_v<Kernel, kernels::LeskKernel>;

  LaneAdversaryBank bank(spec, base, first, count);
  const std::uint64_t n = config.n;
  BatchWorkspace& workspace = local_batch_workspace();
  workspace.begin_chunk();
  SlotProbCache& cache_n = workspace.cache(n);
  SlotProbCache& cache_nm1 = workspace.cache(n - 1);
  const Kernel fresh(params);
  double lesk_inc = 0.0;
  if constexpr (kIsLesk) {
    lesk_inc = fresh.inc;
    cache_n.set_lattice_step(lesk_inc);
    cache_nm1.set_lattice_step(lesk_inc);
  }

  const wide::SlotOps& ops = wide::slot_ops(active_wide_isa());
  WideXoshiro rng(count);
  const std::size_t padded = rng.padded_lanes();

  // Per-lane state: us[k] is the broadcast exponent of lane k's live
  // kernel (LESK's whole state); other kernels keep theirs in kerns[k].
  std::vector<double> us(padded, fresh.broadcast_u());
  std::vector<Kernel> kerns;
  if constexpr (!kIsLesk) kerns.assign(count, fresh);
  std::vector<double> transmissions(padded, 0.0);
  std::vector<std::int64_t> nulls(padded, 0), singles(padded, 0);
  std::vector<std::int64_t> jams(padded, 0);
  std::vector<std::uint32_t> lane_trial(count);
  // Per-slot scratch.
  std::vector<double> c_null(padded), c_single(padded), exp_tx(padded);
  std::vector<double> p(padded, 0.0), r(padded, 0.0);
  std::vector<std::int64_t> states(padded, 0);
  std::vector<std::uint8_t> jam(padded, 0), mask(padded, 0);

  for (std::size_t k = 0; k < count; ++k) {
    rng.seed_lane(k, base.child(first + k).child(0x51e0).seed());
    lane_trial[k] = static_cast<std::uint32_t>(k);
  }

  std::size_t active = count;
  std::size_t b1 = count, b2 = count, b3 = count;  // phase range ends
  std::int64_t slots_done = 0;  // == every live lane's slot count
  std::int64_t slots_total = 0;
  LaneAdversaryBank::Jams jammed = LaneAdversaryBank::Jams::kNone;

  // Phase attribution (stitched, one clock read per boundary): the
  // slot probabilities the roles read are `cache_lookup`, the
  // Bernoulli roles' masked advance is `rng`, the bank's step and
  // observe plus every role pass are `classify` (the category passes
  // fuse draw and classification), and phase changes and retirement
  // are `lattice_update`. Off = one dead branch per section; never
  // touches the draw sequence.
  obs::PhaseAccumulator prof;

  const auto finalize = [&](std::size_t lane, bool elected) {
    TrialOutcome o;
    o.slots = slots_done;
    o.jams = jams[lane];
    o.nulls = nulls[lane];
    o.singles = singles[lane];
    o.collisions = slots_done - nulls[lane] - singles[lane];
    o.transmissions = transmissions[lane];
    if (elected) {
      o.elected = true;
      o.all_done = true;
      o.unique_leader = true;
      o.leader = rng.below_lane(lane, n);  // exchangeable; symbolic
    }
    out[lane_trial[lane]] = o;
  };

  const auto move_lane = [&](std::size_t dst, std::size_t src) {
    rng.move_lane(dst, src);
    bank.move_lane(dst, src);
    us[dst] = us[src];
    if constexpr (!kIsLesk) kerns[dst] = kerns[src];
    transmissions[dst] = transmissions[src];
    nulls[dst] = nulls[src];
    singles[dst] = singles[src];
    jams[dst] = jams[src];
    lane_trial[dst] = lane_trial[src];
    states[dst] = states[src];
  };

  const auto swap_lanes = [&](std::size_t a, std::size_t b) {
    if (a == b) return;
    rng.swap_lanes(a, b);
    bank.swap_lanes(a, b);
    std::swap(us[a], us[b]);
    if constexpr (!kIsLesk) std::swap(kerns[a], kerns[b]);
    std::swap(transmissions[a], transmissions[b]);
    std::swap(nulls[a], nulls[b]);
    std::swap(singles[a], singles[b]);
    std::swap(jams[a], jams[b]);
    std::swap(lane_trial[a], lane_trial[b]);
    std::swap(states[a], states[b]);
  };

  // Rebuilds the kernels of lanes [lo, hi) (an interval start).
  const auto reset_kernels = [&](std::size_t lo, std::size_t hi) {
    std::fill(us.begin() + static_cast<std::ptrdiff_t>(lo),
              us.begin() + static_cast<std::ptrdiff_t>(hi),
              fresh.broadcast_u());
    if constexpr (!kIsLesk) {
      std::fill(kerns.begin() + static_cast<std::ptrdiff_t>(lo),
                kerns.begin() + static_cast<std::ptrdiff_t>(hi), fresh);
    }
  };

  // Generic kernels step off the classified states; a Single shows the
  // kernel a Collision (the transmitter's weak-CD view, which is also
  // the clone's step when the Single changes the lane's phase).
  const auto step_kernels = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      kerns[k].step(states[k] == 0 ? ChannelState::kNull
                                   : ChannelState::kCollision);
      us[k] = kerns[k].broadcast_u();
    }
  };

  // Category role: `cache` holds the slot probabilities of the group
  // that draws (n in C1, n - 1 in C2). A jammed lane classifies against
  // 0.0 thresholds — a Collision, its draw consumed — exactly as in
  // aggregate_lanes_wide. Returns whether any lane heard a Single.
  const auto category = [&](std::size_t lo, std::size_t hi,
                            SlotProbCache& cache) {
    if (lo == hi) return false;
    const std::size_t lanes = hi - lo;
    prof.stop(obs::Phase::kClassify);
    cache.lookup_lanes(us.data() + lo, lanes, c_null.data() + lo,
                       c_single.data() + lo, exp_tx.data() + lo);
    prof.stop(obs::Phase::kCacheLookup);
    if (jammed != LaneAdversaryBank::Jams::kNone) {
      for (std::size_t k = lo; k < hi; ++k) {
        c_null[k] = jam[k] != 0 ? 0.0 : c_null[k];
        c_single[k] = jam[k] != 0 ? 0.0 : c_single[k];
      }
    }
    const wide::LaneBlock block{
        rng.plane(0) + lo,          rng.plane(1) + lo,
        rng.plane(2) + lo,          rng.plane(3) + lo,
        c_null.data() + lo,         c_single.data() + lo,
        exp_tx.data() + lo,         transmissions.data() + lo,
        nulls.data() + lo,          singles.data() + lo,
        states.data() + lo};
    if constexpr (kIsLesk) {
      return ops.clean_slot_lesk(block, us.data() + lo, lesk_inc, lanes);
    } else {
      const bool any_single = ops.clean_slot(block, lanes);
      step_kernels(lo, hi);
      return any_single;
    }
  };

  // Bernoulli role: one station (l or s) transmits w.p. p alone.
  const auto bernoulli = [&](std::size_t lo, std::size_t hi) {
    if (lo == hi) return;
    prof.stop(obs::Phase::kClassify);
    for (std::size_t k = lo; k < hi; ++k) {
      p[k] = cache_n.lookup(us[k]).p;
      mask[k] = static_cast<std::uint8_t>((p[k] > 0.0) & (p[k] < 1.0));
    }
    prof.stop(obs::Phase::kCacheLookup);
    // The draw walks only the groups that hold [lo, hi); within them,
    // the lanes of other ranges are masked out.
    const std::size_t g0 = lo / kWideLanes;
    const std::size_t g1 = (hi + kWideLanes - 1) / kWideLanes;
    std::fill(mask.begin() + static_cast<std::ptrdiff_t>(g0 * kWideLanes),
              mask.begin() + static_cast<std::ptrdiff_t>(lo), std::uint8_t{0});
    std::fill(mask.begin() + static_cast<std::ptrdiff_t>(hi),
              mask.begin() + static_cast<std::ptrdiff_t>(g1 * kWideLanes),
              std::uint8_t{0});
    rng.uniform_masked(g0, g1, mask.data(), r.data());
    prof.stop(obs::Phase::kRng);
    // Branch-free: r < p is a coin flip, so every select is arithmetic
    // on 0/1 integers (a jammed lane is a Collision whatever it sent).
    for (std::size_t k = lo; k < hi; ++k) {
      const std::int64_t tx = static_cast<std::int64_t>(p[k] >= 1.0) |
                              (static_cast<std::int64_t>(r[k] < p[k]) &
                               static_cast<std::int64_t>(mask[k]));
      const std::int64_t jk = jam[k];
      const std::int64_t state = tx + jk * (2 - tx);
      states[k] = state;
      transmissions[k] += p[k];
      nulls[k] += static_cast<std::int64_t>(state == 0);
      singles[k] += static_cast<std::int64_t>(state == 1);
      if constexpr (kIsLesk) {
        // LeskKernel::step: Null -> max(u - 1, 0), else Collision.
        const double next[2] = {std::max(us[k] - 1.0, 0.0), us[k] + lesk_inc};
        us[k] = next[state != 0];
      }
    }
    if constexpr (!kIsLesk) step_kernels(lo, hi);
  };

  // Fixed role: `cnt` (>= 1) stations transmit for sure.
  const auto fixed = [&](std::size_t lo, std::size_t hi, std::uint64_t cnt) {
    const double ex = static_cast<double>(cnt);
    const std::int64_t clean = cnt == 1 ? 1 : 2;
    for (std::size_t k = lo; k < hi; ++k) {
      const std::int64_t state = jam[k] != 0 ? 2 : clean;
      states[k] = state;
      transmissions[k] += ex;
      singles[k] += state == 1 ? 1 : 0;
    }
  };

  // Idle role: nobody transmits — a Null, or a jammed Collision.
  const auto idle = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      states[k] = jam[k] != 0 ? 2 : 0;
      nulls[k] += jam[k] != 0 ? 0 : 1;
    }
  };

  // Moves every lane of [lo, b) that heard a Single into the next
  // phase's range (which starts at b). A lane swapped in from the end
  // of the range is examined in turn.
  const auto promote = [&](std::size_t lo, std::size_t& b) {
    for (std::size_t lane = lo; lane < b;) {
      if (states[lane] != 1) {
        ++lane;
        continue;
      }
      // The fused LESK pass leaves a Single's u alone (an aggregate
      // lane retires on it); the clone's Collision step is this +inc.
      if constexpr (kIsLesk) us[lane] = us[lane] + lesk_inc;
      --b;
      swap_lanes(lane, b);
    }
  };

  for (Slot slot = 0; slot < config.max_slots && active > 0; ++slot) {
    const IntervalPosition pos = classify_slot(slot);
    slots_total += static_cast<std::int64_t>(active);
    ++slots_done;
    prof.start();
    jammed = bank.step(jam.data(), active);
    if (jammed != LaneAdversaryBank::Jams::kNone) {
      for (std::size_t k = 0; k < active; ++k) jams[k] += jam[k];
    }

    bool any_single = false;
    switch (pos.set) {
      case IntervalSet::kC1:
        if (pos.interval_start()) reset_kernels(0, b2);
        any_single = category(0, b1, cache_n);
        bernoulli(b1, b2);
        fixed(b2, b3, n - 2);  // all of R confirms; n >= 3
        idle(b3, active);
        break;
      case IntervalSet::kC2:
        if (pos.interval_start()) reset_kernels(b1, b3);
        idle(0, b1);
        any_single = category(b1, b2, cache_nm1);
        bernoulli(b2, b3);
        idle(b3, active);
        break;
      case IntervalSet::kC3:
        idle(0, b2);
        fixed(b2, active, 1);  // l announces (P3), and keeps at it (P4)
        any_single = jammed != LaneAdversaryBank::Jams::kAll;
        break;
      case IntervalSet::kPadding:
        idle(0, active);
        break;
    }
    bank.observe(states.data(), active);
    prof.stop(obs::Phase::kClassify);

    // Phase changes, after the slot's draws and the bank's observe.
    switch (pos.set) {
      case IntervalSet::kC1:
        // P4 -> done on a Null; the last range, so swap-remove.
        if (jammed != LaneAdversaryBank::Jams::kAll) {
          for (std::size_t lane = b3; lane < active;) {
            if (states[lane] != 0) {
              ++lane;
              continue;
            }
            finalize(lane, true);
            --active;
            move_lane(lane, active);
          }
        }
        if (any_single) promote(0, b1);  // P1 -> P2
        break;
      case IntervalSet::kC2:
        if (any_single) promote(b1, b2);  // P2 -> P3
        break;
      case IntervalSet::kC3:
        if (any_single) promote(b2, b3);  // P3 -> P4
        break;
      case IntervalSet::kPadding:
        break;
    }
    prof.stop(obs::Phase::kLatticeUpdate);
  }
  // Right-censored lanes: budget exhausted without election.
  for (std::size_t lane = 0; lane < active; ++lane) finalize(lane, false);
  JAMELECT_OBS_COUNT("engine.batch.hybrid_chunks", 1);
  JAMELECT_OBS_COUNT("engine.batch.slots", slots_total);
  JAMELECT_OBS_COUNT("mc.batch_wide_slots", slots_total);
  workspace.emit_cache_counters();
}

/// Lane view of the wide generator, quacking like a scalar generator
/// for binomial_plan_draw_first's remainder draws (loop coins past the
/// first, BTPE rejection retries).
struct LaneRng {
  WideXoshiro* pack;
  std::size_t lane;
  [[nodiscard]] double uniform() { return pack->uniform_lane(lane); }
};

/// Strong-CD cohort lanes: the SoA mirror of CohortEngine::run
/// (sim/cohort.cpp) for a UniformStationAdapter over a paper kernel.
///
/// Under strong CD every station observes the true slot state, so all
/// n stations take the same kernel step and stay one cohort until the
/// first clean Single. That Single ends the trial under either stop
/// rule: it makes the transmitter leader and every listener done in
/// the same slot. A lane is therefore one kernel plus one
/// Binomial(n, p(u)) count per slot. A clean Single sets elected,
/// all_done and unique_leader and draws the leader with one below(n),
/// which is CohortEngine's finalisation for both stop rules; a
/// censored lane sets none of them.
///
/// Each lane's first uniform of a slot (and BTPE's second) comes from
/// a wide group draw, and any remainder draws continue scalar on the
/// lane's own stream, so lane k consumes base.child(first +
/// k).child(0x51e0) exactly as the sequential engine does. Elected
/// lanes are swap-removed after the slot's bank observe.
template <class Kernel>
void cohort_lanes(const typename Kernel::Params& params,
                  const AdversarySpec& spec, const BatchConfig& config,
                  const Rng& base, std::size_t first, std::size_t count,
                  TrialOutcome* out) {
  JAMELECT_EXPECTS(config.n >= 1);
  JAMELECT_EXPECTS(config.max_slots >= 1);
  const std::uint64_t n = config.n;
  WideXoshiro pack(count);
  const std::size_t padded = pack.padded_lanes();
  std::vector<std::uint32_t> lane_trial(count);
  for (std::size_t k = 0; k < count; ++k) {
    pack.seed_lane(k, base.child(first + k).child(0x51e0).seed());
    lane_trial[k] = static_cast<std::uint32_t>(k);
  }
  // Lane k's adversary is the sequential runner's
  // make_adversary(spec, base.child(first + k).child(0xad50)).
  LaneAdversaryBank bank(spec, base, first, count);

  BatchWorkspace& workspace = local_batch_workspace();
  workspace.begin_chunk();
  BinomialSamplerCache& cache = workspace.plans();
  if constexpr (std::is_same_v<Kernel, kernels::LeskKernel>) {
    // LESK's u moves on the {-1, +eps/8} lattice, so steady-state plan
    // lookups hit the dense index.
    cache.set_lattice_step(Kernel(params).inc);
  }

  std::vector<Kernel> kerns(count, Kernel(params));
  std::vector<std::int64_t> jams(count, 0), nulls(count, 0);
  std::vector<double> transmissions(count, 0.0);
  // Per-slot scratch.
  std::vector<std::uint8_t> jam(count, 0);
  std::vector<std::int64_t> states(count, 0);  // fed to observe()
  std::vector<const BinomialPlan*> plans(count, nullptr);
  std::vector<std::uint8_t> mask(padded, 0), btpe_mask(padded, 0);
  std::vector<double> first_u(padded, 0.0), second_u(padded, 0.0);

  std::size_t active = count;
  std::int64_t slots_done = 0;  // == every live lane's slot count
  std::int64_t slots_total = 0;

  /// Writes lane l's outcome; the lane ran slots_done slots, and only
  /// its last slot can have been a Single.
  const auto finalize = [&](std::size_t l, bool elected) {
    TrialOutcome o;
    o.slots = slots_done;
    o.jams = jams[l];
    o.nulls = nulls[l];
    o.singles = elected ? 1 : 0;
    o.collisions = slots_done - o.nulls - o.singles;
    o.transmissions = transmissions[l];
    if (elected) {
      o.elected = true;
      o.all_done = true;
      o.unique_leader = true;
      o.leader = static_cast<StationId>(pack.below_lane(l, n));
    }
    out[lane_trial[l]] = o;
  };

  /// Lane l's slot given its transmitter count k: bookkeeping and the
  /// kernel step every station takes (a Single's step is moot, as the
  /// lane retires). Returns whether the slot was a Collision.
  bool any_single = false;
  const auto settle = [&](std::size_t l, std::uint64_t k) {
    const bool jammed = jam[l] != 0;
    const ChannelState state = resolve_slot(k, jammed);
    states[l] = static_cast<std::int64_t>(state);
    jams[l] += jammed ? 1 : 0;
    nulls[l] += state == ChannelState::kNull ? 1 : 0;
    transmissions[l] += static_cast<double>(k);
    any_single |= state == ChannelState::kSingle;
    kerns[l].step(state);
    return state == ChannelState::kCollision;
  };

  /// Lane l's count under `plan`, its first uniform (and, for BTPE, its
  /// second) already drawn into first_u/second_u.
  const auto lane_count = [&](std::size_t l, const BinomialPlan& plan) {
    if (plan.regime == BinomialPlan::Regime::kBtpe) {
      // btpe_draw's first (triangle) accept test inlined on the same
      // expressions, skipping the call on the dominant path.
      const BinomialPlan::BtpeSetup& bt = *plan.btpe;
      const double u = first_u[l] * bt.p4;
      if (u <= bt.p1) {
        const auto y = static_cast<std::uint64_t>(
            std::floor(bt.xm - bt.p1 * second_u[l] + u));
        return plan.reflect ? plan.n - y : y;
      }
      LaneRng lane_rng{&pack, l};
      return binomial_plan_draw_first2(plan, first_u[l], second_u[l],
                                       lane_rng);
    }
    if (plan.needs_draw()) {
      LaneRng lane_rng{&pack, l};
      return binomial_plan_draw_first(plan, first_u[l], lane_rng);
    }
    return plan.regime == BinomialPlan::Regime::kAll ? plan.n
                                                     : std::uint64_t{0};
  };

  // Cross-slot uniformity hint. After a uniform slot in which every
  // lane resolved Collision, each kernel took the identical
  // step(kCollision) from an identical u and no lane retired, so the
  // next slot provably starts with every lane at one u and the
  // O(active) probe can be skipped. Sound only for kernels whose state
  // is exactly (u, elected): Estimation (inside Lesu) carries round
  // counters that broadcast_u() does not pin, so identical feedback
  // can still diverge the next u.
  constexpr bool kUniformHintable =
      std::is_same_v<Kernel, kernels::UniformKernel> ||
      std::is_same_v<Kernel, kernels::LeskKernel>;
  bool uniform_hint = false;

  for (Slot slot = 0; slot < config.max_slots && active > 0; ++slot) {
    slots_total += static_cast<std::int64_t>(active);
    ++slots_done;
    // Jam bits first: each adversary moves before seeing its lane's
    // coins, exactly as the sequential engine.
    bank.step(jam.data(), active);
    const std::size_t groups = (active + kWideLanes - 1) / kWideLanes;

    // Uniform-slot probe: while no lane has diverged — the whole
    // jam/collision climb, where every slot is a Collision for every
    // lane — all lanes share ONE plan, the per-lane plan and mask
    // scaffolding drops out, and the group draws go dense (advancing a
    // pad lane's stream is unobservable).
    const double u0 = kerns[0].broadcast_u();
    bool uniform = kUniformHintable && uniform_hint;
    if (!uniform) {
      uniform = true;
      for (std::size_t l = 1; l < active; ++l) {
        if (kerns[l].broadcast_u() != u0) {
          uniform = false;
          break;
        }
      }
    }
    uniform_hint = false;
    any_single = false;
    if (uniform) {
      // One shared plan: dense group draws for every lane (BTPE's first
      // attempt always consumes u then v, so both come grouped).
      const BinomialPlan& plan = cache.plan(n, u0);
      if (plan.regime == BinomialPlan::Regime::kBtpe) {
        pack.uniform_groups2(groups, first_u.data(), second_u.data());
      } else if (plan.needs_draw()) {
        pack.uniform_groups(groups, first_u.data());
      }
      bool all_collide = true;
      for (std::size_t l = 0; l < active; ++l) {
        all_collide &= settle(l, lane_count(l, plan));
      }
      uniform_hint = all_collide;
    } else {
      // Mixed slot: per-lane plans (memoized on the previous lane's u,
      // as lanes mostly share one) with masked group draws.
      double memo_u = -1.0;
      const BinomialPlan* memo_plan = nullptr;
      for (std::size_t l = 0; l < active; ++l) {
        const double u = kerns[l].broadcast_u();
        if (memo_plan == nullptr || u != memo_u) {
          memo_plan = &cache.plan(n, u);
          memo_u = u;
        }
        plans[l] = memo_plan;
        mask[l] = memo_plan->needs_draw() ? 1 : 0;
        btpe_mask[l] =
            memo_plan->regime == BinomialPlan::Regime::kBtpe ? 1 : 0;
      }
      for (std::size_t l = active; l < groups * kWideLanes; ++l) {
        mask[l] = 0;
        btpe_mask[l] = 0;
      }
      pack.uniform_masked(0, groups, mask.data(), first_u.data());
      // BTPE's first attempt consumes u then v before any test, so v is
      // grouped too; each lane's stream sees u then v in order.
      pack.uniform_masked(0, groups, btpe_mask.data(), second_u.data());
      for (std::size_t l = 0; l < active; ++l) {
        settle(l, lane_count(l, *plans[l]));
      }
    }
    bank.observe(states.data(), active);

    if (any_single) {
      // Swap-remove elected lanes; a lane swapped in from the end may
      // have elected this slot too, so re-examine the index.
      for (std::size_t l = 0; l < active;) {
        if (states[l] != static_cast<std::int64_t>(ChannelState::kSingle)) {
          ++l;
          continue;
        }
        finalize(l, true);
        --active;
        if (l != active) {
          pack.move_lane(l, active);
          bank.move_lane(l, active);
          kerns[l] = kerns[active];
          jams[l] = jams[active];
          nulls[l] = nulls[active];
          transmissions[l] = transmissions[active];
          states[l] = states[active];
          lane_trial[l] = lane_trial[active];
        }
      }
    }
  }
  // Censored lanes: slot budget exhausted with trials in flight.
  for (std::size_t l = 0; l < active; ++l) finalize(l, false);

  JAMELECT_OBS_COUNT("engine.batch.cohort_chunks", 1);
  JAMELECT_OBS_COUNT("engine.batch.slots", slots_total);
  JAMELECT_OBS_COUNT("mc.batch_wide_slots", slots_total);
  workspace.emit_plan_counters();
}

}  // namespace

MemoStats memo_stats() noexcept {
  return MemoStats{g_memo_peak_bytes.load(std::memory_order_relaxed),
                   g_memo_evictions.load(std::memory_order_relaxed)};
}

std::optional<BatchKernelSpec> batch_kernel_spec(
    const UniformProtocol& prototype) {
  // A kernel always starts fresh from its params, so a recognized type
  // only qualifies if the probed instance is still in its constructed
  // state (state_equals against a pristine twin).
  if (const auto* p = dynamic_cast<const PlainUniform*>(&prototype)) {
    if (PlainUniform(p->params()).state_equals(prototype)) {
      return BatchKernelSpec{p->params()};
    }
    return std::nullopt;
  }
  if (const auto* p = dynamic_cast<const Lesk*>(&prototype)) {
    if (Lesk(p->params()).state_equals(prototype)) {
      return BatchKernelSpec{p->params()};
    }
    return std::nullopt;
  }
  if (const auto* p = dynamic_cast<const Lesu*>(&prototype)) {
    if (Lesu(p->params()).state_equals(prototype)) {
      return BatchKernelSpec{p->params()};
    }
    return std::nullopt;
  }
  if (const auto* p = dynamic_cast<const Willard*>(&prototype)) {
    if (Willard(p->params()).state_equals(prototype)) {
      return BatchKernelSpec{p->params()};
    }
    return std::nullopt;
  }
  if (const auto* p = dynamic_cast<const NakanoOlariu*>(&prototype)) {
    if (NakanoOlariu(p->params()).state_equals(prototype)) {
      return BatchKernelSpec{p->params()};
    }
    return std::nullopt;
  }
  if (const auto* p = dynamic_cast<const NoCdElection*>(&prototype)) {
    if (NoCdElection(p->params()).state_equals(prototype)) {
      return BatchKernelSpec{p->params()};
    }
    return std::nullopt;
  }
  return std::nullopt;
}

void run_batch_aggregate_trials(const BatchKernelSpec& spec,
                                const AdversarySpec& adversary,
                                const BatchConfig& config, const Rng& base,
                                std::size_t first, std::size_t count,
                                TrialOutcome* out) {
  JAMELECT_EXPECTS(out != nullptr || count == 0);
  if (count == 0) return;
  AdversarySpec adv = adversary;
  adv.n = config.n;
  std::visit(
      [&](const auto& params) {
        using Kernel = typename KernelFor<
            std::decay_t<decltype(params)>>::type;
        aggregate_lanes_wide<Kernel>(params, adv, config, base, first,
                                     count, out);
      },
      spec);
}

void run_batch_hybrid_trials(const BatchKernelSpec& spec,
                             const AdversarySpec& adversary,
                             const BatchConfig& config, const Rng& base,
                             std::size_t first, std::size_t count,
                             TrialOutcome* out) {
  JAMELECT_EXPECTS(out != nullptr || count == 0);
  if (count == 0) return;
  AdversarySpec adv = adversary;
  adv.n = config.n;
  std::visit(
      [&](const auto& params) {
        using Kernel = typename KernelFor<
            std::decay_t<decltype(params)>>::type;
        hybrid_lanes_wide<Kernel>(params, adv, config, base, first, count,
                                  out);
      },
      spec);
}

void run_batch_cohort_trials(const CohortKernelSpec& spec,
                             const AdversarySpec& adversary,
                             const BatchConfig& config, const Rng& base,
                             std::size_t first, std::size_t count,
                             TrialOutcome* out) {
  JAMELECT_EXPECTS(out != nullptr || count == 0);
  if (count == 0) return;
  AdversarySpec adv = adversary;
  adv.n = config.n;
  std::visit(
      [&](const auto& params) {
        using Kernel = typename KernelFor<
            std::decay_t<decltype(params)>>::type;
        cohort_lanes<Kernel>(params, adv, config, base, first, count, out);
      },
      spec);
}

}  // namespace jamelect
