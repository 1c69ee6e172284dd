#include "sim/batch.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "baselines/baseline_kernels.hpp"
#include "channel/channel.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "protocols/interval_partition.hpp"
#include "protocols/kernels.hpp"
#include "sim/batch_wide.hpp"
#include "sim/lane_adversary.hpp"
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

void record_state(TrialOutcome& o, ChannelState state) {
  switch (state) {
    case ChannelState::kNull: ++o.nulls; break;
    case ChannelState::kSingle: ++o.singles; break;
    case ChannelState::kCollision: ++o.collisions; break;
  }
}

/// Per-thread reusable chunk state for the multi-core orchestrator.
///
/// SlotProbCache entries are pure functions of (n, u) — protocol- and
/// trial-independent — so a warm cache from one chunk answers the next
/// chunk's lookups without redoing the exp/log chains, and reuse can
/// never change a result. Each worker thread owns one workspace
/// (thread_local), so chunks sharded across the ThreadPool touch no
/// shared mutable state: bit-identity across thread counts is
/// structural, and TSAN has nothing to watch here. A small LRU of
/// caches keyed by n covers sweeps that interleave station counts
/// (the hybrid engine uses n and n - 1 in one chunk).
///
/// Counter discipline: caches outlive chunks, so the engine rollup
/// must emit per-chunk DELTAS of the cache counters, not totals —
/// emit_cache_counters() tracks the last-emitted watermark per cache.
class BatchWorkspace {
 public:
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
      // Per-thread mirror for the profiler: the scaling report needs
      // hit-rate VARIANCE across workers, which the process-wide
      // registry rollup above cannot reconstruct.
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
  std::vector<std::unique_ptr<Entry>> entries_;
};

[[nodiscard]] BatchWorkspace& local_batch_workspace() {
  thread_local BatchWorkspace workspace;
  return workspace;
}

/// A kernel slot that may be unoccupied — the batch mirror of the
/// UniformProtocolPtr null/reset dance in run_hybrid_notification.
template <class Kernel>
struct MaybeKernel {
  Kernel kernel;
  bool valid = false;
};

/// The P1..P4 phase machine of run_hybrid_notification.
enum class HybridPhase : std::uint8_t { kP1, kP2, kP3, kP4, kDone };

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
      any_single =
          ops.clean_slot_lesk(*slot_block, us.data(), lesk_inc, groups);
    } else {
      any_single = ops.clean_slot(*slot_block, groups);
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

/// What a hybrid lane wants from the rng this slot (pass A result).
enum class DrawKind : std::uint8_t { kNone = 0, kCategory, kBernoulli };

/// SIMD-wide weak-CD hybrid Notification lanes. The P1..P4 phase
/// machine stays scalar (per-slot work varies per lane), but the slot
/// is split into three passes so the rng advance — the hot, uniform
/// part — happens wide: pass A records each lane's draw request (the
/// draws of run_hybrid_notification's slot body, replaced by
/// requests), pass B advances every drawing lane in one masked wide
/// step, pass C consumes the draws and runs the post-state transitions.
/// Lanes make at most one draw per slot, so per-lane draw order — and
/// hence bit identity with the sequential engine — is preserved
/// exactly.
///
/// The jams come from a LaneAdversaryBank (sim/lane_adversary.hpp):
/// per-lane jam bits, observed states fed back after every slot
/// (padding included, matching the sequential engine's per-slot
/// observe()).
template <class Kernel>
void hybrid_lanes_wide(const typename Kernel::Params& params,
                       const AdversarySpec& spec, const BatchConfig& config,
                       const Rng& base, std::size_t first, std::size_t count,
                       TrialOutcome* out) {
  JAMELECT_EXPECTS(config.n >= 3);
  JAMELECT_EXPECTS(config.max_slots >= 1);
  LaneAdversaryBank bank(spec, base, first, count);
  const std::uint64_t n = config.n;
  BatchWorkspace& workspace = local_batch_workspace();
  SlotProbCache& cache_n = workspace.cache(n);
  SlotProbCache& cache_nm1 = workspace.cache(n - 1);
  if constexpr (std::is_same_v<Kernel, kernels::LeskKernel>) {
    const double inc = Kernel(params).inc;
    cache_n.set_lattice_step(inc);
    cache_nm1.set_lattice_step(inc);
  }

  WideXoshiro rng(count);
  const std::size_t padded = rng.padded_lanes();

  std::vector<HybridPhase> phases(count, HybridPhase::kP1);
  std::vector<MaybeKernel<Kernel>> shared(count, {Kernel(params), false});
  std::vector<MaybeKernel<Kernel>> l_a(count, {Kernel(params), false});
  std::vector<MaybeKernel<Kernel>> s_a(count, {Kernel(params), false});
  std::vector<std::uint32_t> lane_trial(count);
  std::vector<TrialOutcome> acc(count);

  // Per-slot scratch, SoA so pass B is one wide masked advance.
  std::vector<DrawKind> draw(count, DrawKind::kNone);
  std::vector<std::uint64_t> fixed_cnt(count, 0);
  std::vector<double> thr0(count, 0.0), thr1(count, 0.0), slot_tx(count, 0.0);
  std::vector<std::uint8_t> mask(padded, 0);
  std::vector<double> r(padded, 0.0);
  std::vector<std::uint8_t> jam(count, 0);
  std::vector<std::int64_t> lane_states(count, 0);  // fed to observe()

  for (std::size_t k = 0; k < count; ++k) {
    rng.seed_lane(k, base.child(first + k).child(0x51e0).seed());
    lane_trial[k] = static_cast<std::uint32_t>(k);
  }

  std::size_t active = count;
  std::int64_t slots_total = 0;
  // Phase attribution (stitched, one clock read per boundary): pass A
  // (kernel u reads + slot-prob cache probes) -> cache_lookup, pass B
  // (the wide masked uniform advance) -> rng, pass C (draw consumption,
  // outcome accounting, phase transitions) -> classify, retirement
  // compaction -> lattice_update.
  obs::PhaseAccumulator prof;
  for (Slot slot = 0; slot < config.max_slots && active > 0; ++slot) {
    const IntervalPosition pos = classify_slot(slot);
    slots_total += static_cast<std::int64_t>(active);
    bank.step(jam.data(), active);

    if (pos.set == IntervalSet::kPadding) {
      // Nobody draws or acts in padding: the slot is a Null (or a
      // jammed Collision) for every lane, and no phase can complete
      // (every transition keys on C1..C3), so no retirement check.
      // The adversary still observes the padding slots — the
      // sequential engine feeds it every slot too.
      prof.start();
      for (std::size_t lane = 0; lane < active; ++lane) {
        const bool jl = jam[lane] != 0;
        const ChannelState state = resolve_slot(0, jl);
        TrialOutcome& o = acc[lane];
        ++o.slots;
        if (jl) ++o.jams;
        record_state(o, state);
        lane_states[lane] = static_cast<std::int64_t>(state);
      }
      bank.observe(lane_states.data(), active);
      prof.stop(obs::Phase::kClassify);
      continue;
    }

    // Pass A: record each lane's draw request for this slot.
    prof.start();
    for (std::size_t lane = 0; lane < active; ++lane) {
      DrawKind d = DrawKind::kNone;
      std::uint64_t fc = 0;
      double t0 = 0.0;
      double t1 = 0.0;
      double ex = 0.0;
      switch (phases[lane]) {
        case HybridPhase::kP1:
          if (pos.set == IntervalSet::kC1) {
            if (pos.interval_start() || !shared[lane].valid) {
              shared[lane] = {Kernel(params), true};
            }
            const SlotProbCache::Entry& e =
                cache_n.lookup(shared[lane].kernel.broadcast_u());
            ex = e.exp_tx;
            d = DrawKind::kCategory;
            t0 = e.c_null;
            t1 = e.c_single;
          }
          break;
        case HybridPhase::kP2:
          if (pos.set == IntervalSet::kC1) {
            if (pos.interval_start() || !l_a[lane].valid) {
              l_a[lane] = {Kernel(params), true};
            }
            const double p =
                transmit_probability(l_a[lane].kernel.broadcast_u());
            ex = p;
            // Rng::bernoulli consumes a draw only for p in (0, 1);
            // the degenerate cases have a fixed result.
            if (p <= 0.0) {
              fc = 0;
            } else if (p >= 1.0) {
              fc = 1;
            } else {
              d = DrawKind::kBernoulli;
              t0 = p;
            }
          } else if (pos.set == IntervalSet::kC2) {
            if (pos.interval_start() || !shared[lane].valid) {
              shared[lane] = {Kernel(params), true};
            }
            const SlotProbCache::Entry& e =
                cache_nm1.lookup(shared[lane].kernel.broadcast_u());
            ex = e.exp_tx;
            d = DrawKind::kCategory;
            t0 = e.c_null;
            t1 = e.c_single;
          }
          break;
        case HybridPhase::kP3:
          if (pos.set == IntervalSet::kC1) {
            fc = n - 2;  // all of R confirms; n >= 3 so fc >= 1
            ex = static_cast<double>(n - 2);
          } else if (pos.set == IntervalSet::kC2) {
            if (pos.interval_start() || !s_a[lane].valid) {
              s_a[lane] = {Kernel(params), true};
            }
            const double p =
                transmit_probability(s_a[lane].kernel.broadcast_u());
            ex = p;
            if (p <= 0.0) {
              fc = 0;
            } else if (p >= 1.0) {
              fc = 1;
            } else {
              d = DrawKind::kBernoulli;
              t0 = p;
            }
          } else {  // C3: l announces
            fc = 1;
            ex = 1.0;
          }
          break;
        case HybridPhase::kP4:
          if (pos.set == IntervalSet::kC3) {
            fc = 1;  // l keeps announcing until released
            ex = 1.0;
          }
          break;
        case HybridPhase::kDone:
          break;  // unreachable: done lanes retire the slot they finish
      }
      draw[lane] = d;
      mask[lane] = d == DrawKind::kNone ? 0 : 1;
      fixed_cnt[lane] = fc;
      thr0[lane] = t0;
      thr1[lane] = t1;
      slot_tx[lane] = ex;
    }
    const std::size_t groups = (active + kWideLanes - 1) / kWideLanes;
    for (std::size_t lane = active; lane < groups * kWideLanes; ++lane) {
      mask[lane] = 0;  // pad lanes must not advance
    }
    prof.stop(obs::Phase::kCacheLookup);

    // Pass B: one wide advance covering every lane that draws.
    rng.uniform_masked(groups, mask.data(), r.data());
    prof.stop(obs::Phase::kRng);

    // Pass C: consume the draws — classification, outcome accounting,
    // and the post-state transitions of run_hybrid_notification.
    for (std::size_t lane = 0; lane < active; ++lane) {
      std::uint64_t cnt = fixed_cnt[lane];
      if (draw[lane] == DrawKind::kCategory) {
        cnt = r[lane] < thr0[lane] ? 0 : (r[lane] < thr1[lane] ? 1 : 2);
      } else if (draw[lane] == DrawKind::kBernoulli) {
        cnt = r[lane] < thr0[lane] ? 1 : 0;
      }
      const bool jammed = jam[lane] != 0;
      const ChannelState state = resolve_slot(cnt, jammed);

      TrialOutcome& o = acc[lane];
      ++o.slots;
      o.transmissions += slot_tx[lane];
      if (jammed) ++o.jams;
      record_state(o, state);
      lane_states[lane] = static_cast<std::int64_t>(state);

      switch (phases[lane]) {
        case HybridPhase::kP1:
          if (pos.set == IntervalSet::kC1) {
            if (state == ChannelState::kSingle) {
              l_a[lane] = {shared[lane].kernel, true};
              l_a[lane].kernel.step(ChannelState::kCollision);
              shared[lane].valid = false;
              phases[lane] = HybridPhase::kP2;
            } else {
              shared[lane].kernel.step(state);
            }
          }
          break;
        case HybridPhase::kP2:
          if (pos.set == IntervalSet::kC1) {
            if (l_a[lane].valid) {
              l_a[lane].kernel.step(cnt >= 1 ? ChannelState::kCollision
                                             : state);
            }
          } else if (pos.set == IntervalSet::kC2) {
            if (state == ChannelState::kSingle) {
              s_a[lane] = {shared[lane].kernel, true};
              s_a[lane].kernel.step(ChannelState::kCollision);
              shared[lane].valid = false;
              l_a[lane].valid = false;
              phases[lane] = HybridPhase::kP3;
            } else if (shared[lane].valid) {
              shared[lane].kernel.step(state);
            }
          }
          break;
        case HybridPhase::kP3:
          if (pos.set == IntervalSet::kC2) {
            if (s_a[lane].valid) {
              s_a[lane].kernel.step(cnt >= 1 ? ChannelState::kCollision
                                             : state);
            }
          } else if (pos.set == IntervalSet::kC3) {
            if (state == ChannelState::kSingle) {
              s_a[lane].valid = false;
              phases[lane] = HybridPhase::kP4;
            }
          }
          break;
        case HybridPhase::kP4:
          if (pos.set == IntervalSet::kC1 && state == ChannelState::kNull) {
            phases[lane] = HybridPhase::kDone;
          }
          break;
        case HybridPhase::kDone:
          break;
      }
    }
    bank.observe(lane_states.data(), active);

    prof.stop(obs::Phase::kClassify);

    // Retirement + compaction after the full sweep (equivalent to
    // retiring mid-sweep; lanes are independent in-slot).
    // jam/lane_states need no copy: both are rewritten for every live
    // lane at the top of the next slot before any read.
    for (std::size_t lane = 0; lane < active;) {
      if (phases[lane] != HybridPhase::kDone) {
        ++lane;
        continue;
      }
      TrialOutcome& o = acc[lane];
      o.elected = true;
      o.all_done = true;
      o.unique_leader = true;
      o.leader = rng.below_lane(lane, n);
      out[lane_trial[lane]] = o;
      --active;
      if (lane != active) {
        phases[lane] = phases[active];
        shared[lane] = shared[active];
        l_a[lane] = l_a[active];
        s_a[lane] = s_a[active];
        rng.move_lane(lane, active);
        bank.move_lane(lane, active);
        lane_trial[lane] = lane_trial[active];
        acc[lane] = acc[active];
      }
    }
    prof.stop(obs::Phase::kLatticeUpdate);
  }
  for (std::size_t lane = 0; lane < active; ++lane) {
    out[lane_trial[lane]] = acc[lane];
  }
  JAMELECT_OBS_COUNT("engine.batch.hybrid_chunks", 1);
  JAMELECT_OBS_COUNT("engine.batch.slots", slots_total);
  JAMELECT_OBS_COUNT("mc.batch_wide_slots", slots_total);
  workspace.emit_cache_counters();
}

}  // namespace

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

}  // namespace jamelect
