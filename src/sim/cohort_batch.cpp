#include "sim/cohort_batch.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>
#include <vector>

#include "channel/channel.hpp"
#include "obs/metrics.hpp"
#include "protocols/kernels.hpp"
#include "protocols/uniform_station.hpp"
#include "sim/lane_adversary.hpp"
#include "support/binomial_cache.hpp"
#include "support/expects.hpp"
#include "support/wide_rng.hpp"

namespace jamelect {

namespace {

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

// ---------------------------------------------------------------------------
// Representative mirror: UniformStationAdapter semantics over a POD kernel.
// ---------------------------------------------------------------------------

/// One cohort representative: kernel state plus the adapter's
/// termination flags. Trivially copyable, so a weak-CD Single split is
/// a struct copy instead of a clone_station() allocation.
template <class Kernel>
struct Rep {
  Kernel kern;
  bool done;
  bool leader;
};

/// Mirror of UniformStationAdapter::feedback, the kernel in place of
/// the virtual protocol — statement for statement, including the no-CD
/// contract check.
template <class Kernel>
void rep_feedback(Rep<Kernel>& rep, bool transmitted, Observation obs) {
  if (rep.done) return;
  JAMELECT_EXPECTS(obs != Observation::kNoSingle);  // no-CD unsupported here
  const ChannelState state = to_channel_state(obs);
  rep.kern.step(state);
  if (state == ChannelState::kSingle) {
    rep.done = true;
    rep.leader = transmitted;
  }
}

// Field-wise kernel equality, mirroring each protocol's state_equals
// (plain_uniform.hpp, lesk.cpp, estimation.cpp, lesu.cpp). Parameter
// fields (inc, L, params) are identical across reps cloned from one
// prototype, so comparing them costs nothing and keeps the mirror an
// exact transcription.
[[nodiscard]] bool kernel_state_equals(const kernels::UniformKernel& a,
                                       const kernels::UniformKernel& b) {
  return a.u == b.u && a.elected == b.elected;
}

[[nodiscard]] bool kernel_state_equals(const kernels::LeskKernel& a,
                                       const kernels::LeskKernel& b) {
  return a.inc == b.inc && a.u == b.u && a.elected == b.elected;
}

[[nodiscard]] bool kernel_state_equals(const kernels::EstimationKernel& a,
                                       const kernels::EstimationKernel& b) {
  return a.L == b.L && a.round == b.round &&
         a.slots_left_in_round == b.slots_left_in_round &&
         a.nulls_in_round == b.nulls_in_round && a.completed == b.completed &&
         a.elected == b.elected;
}

[[nodiscard]] bool kernel_state_equals(const kernels::LesuKernel& a,
                                       const kernels::LesuKernel& b) {
  // Lesu::state_equals skips the LESK comparison while lesk_ is null;
  // the kernel's pre-phase placeholder is the same constant for every
  // rep, so comparing it unconditionally is equivalent.
  return a.params.c == b.params.c &&
         a.params.estimation_L == b.params.estimation_L &&
         a.params.max_i == b.params.max_i && a.lesk_phase == b.lesk_phase &&
         a.elected == b.elected && a.i == b.i && a.j == b.j && a.t0 == b.t0 &&
         a.current_eps == b.current_eps && a.slots_left == b.slots_left &&
         kernel_state_equals(a.est, b.est) &&
         kernel_state_equals(a.lesk, b.lesk);
}

/// Mirror of UniformStationAdapter::state_equals.
template <class Kernel>
[[nodiscard]] bool rep_state_equals(const Rep<Kernel>& a,
                                    const Rep<Kernel>& b) {
  return a.done == b.done && a.leader == b.leader &&
         kernel_state_equals(a.kern, b.kern);
}

// ---------------------------------------------------------------------------
// Per-lane RNG view.
// ---------------------------------------------------------------------------

/// Lane view of the wide generator, quacking like a scalar generator
/// for binomial_plan_draw_first's remainder draws (loop coins past the
/// first, BTPE rejection retries).
struct LaneRng {
  WideXoshiro* pack;
  std::size_t lane;
  [[nodiscard]] double uniform() { return pack->uniform_lane(lane); }
};

// ---------------------------------------------------------------------------
// Per-thread plan cache.
// ---------------------------------------------------------------------------

/// Per-thread cohort-batch state: one BinomialSamplerCache shared by
/// every chunk this worker runs (plans are pure functions of
/// (|cohort|, u), so reuse across configs and n is sound), plus
/// watermarks so each chunk emits its cache-counter deltas.
struct CohortWorkspace {
  BinomialSamplerCache cache;
  std::uint64_t lookups_seen = 0;
  std::uint64_t misses_seen = 0;
  std::uint64_t dense_seen = 0;

  void emit_cache_counters() {
    const std::uint64_t lookups = cache.lookups();
    const std::uint64_t misses = cache.misses();
    const std::uint64_t dense = cache.dense_hits();
    JAMELECT_OBS_COUNT(
        "engine.cohort.binom_cache_hits",
        static_cast<std::int64_t>((lookups - lookups_seen) -
                                  (misses - misses_seen)));
    JAMELECT_OBS_COUNT("engine.cohort.binom_cache_misses",
                       static_cast<std::int64_t>(misses - misses_seen));
    JAMELECT_OBS_COUNT("engine.cohort.binom_cache_dense_hits",
                       static_cast<std::int64_t>(dense - dense_seen));
    lookups_seen = lookups;
    misses_seen = misses;
    dense_seen = dense;
  }
};

CohortWorkspace& local_cohort_workspace() {
  thread_local CohortWorkspace workspace;
  return workspace;
}

// ---------------------------------------------------------------------------
// Scalar trial: the overflow-rerun path.
// ---------------------------------------------------------------------------

/// One kernelized cohort trial with an unbounded table: the exact loop
/// of CohortEngine::run (cohort.cpp) with annotation branches removed
/// (no trace, no observer — both probed away upstream), reps in place
/// of virtual protocols, a one-lane bank in place of the virtual
/// adversary, and draws through the plan cache. Runs a lane whose
/// cohort table outgrew CohortBatchConfig::cohort_cap, restarted from
/// slot 0 on freshly derived streams.
template <class Kernel>
TrialOutcome scalar_cohort_trial(const typename Kernel::Params& params,
                                 const CohortBatchConfig& config,
                                 LaneAdversaryBank& adversary, Rng rng,
                                 BinomialSamplerCache& cache,
                                 std::int64_t& slots_accum) {
  struct Cohort {
    Rep<Kernel> rep;
    std::uint64_t size;
  };
  std::vector<Cohort> cohorts;
  cohorts.push_back(Cohort{Rep<Kernel>{Kernel(params), false, false},
                           config.n});
  std::vector<std::uint64_t> tx;
  TrialOutcome out;

  for (Slot slot = 0; slot < config.max_slots; ++slot) {
    std::uint8_t jam = 0;
    adversary.step(&jam, 1);
    const bool jammed = jam != 0;

    const std::size_t live = cohorts.size();
    tx.resize(live);
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < live; ++c) {
      if (cohorts[c].rep.done) {  // p == 0: no transmission, no draw
        tx[c] = 0;
        continue;
      }
      const BinomialPlan& plan =
          cache.plan(cohorts[c].size, cohorts[c].rep.kern.broadcast_u());
      const std::uint64_t k = binomial_plan_draw(plan, rng);
      tx[c] = k;
      total += k;
    }

    const ChannelState state = resolve_slot(total, jammed);

    ++out.slots;
    if (jammed) ++out.jams;
    switch (state) {
      case ChannelState::kNull: ++out.nulls; break;
      case ChannelState::kSingle: ++out.singles; break;
      case ChannelState::kCollision: ++out.collisions; break;
    }
    out.transmissions += static_cast<double>(total);

    const Observation obs_l = observe_slot(state, false, config.cd);
    const Observation obs_t = observe_slot(state, true, config.cd);
    for (std::size_t c = 0; c < live; ++c) {
      Cohort& cohort = cohorts[c];
      const std::uint64_t k = tx[c];
      if (k == 0) {
        rep_feedback(cohort.rep, false, obs_l);
      } else if (k == cohort.size) {
        rep_feedback(cohort.rep, true, obs_t);
      } else if (obs_l == obs_t && obs_l != Observation::kSingle) {
        rep_feedback(cohort.rep, false, obs_l);
      } else {
        Rep<Kernel> tx_rep = cohort.rep;
        rep_feedback(tx_rep, true, obs_t);
        rep_feedback(cohort.rep, false, obs_l);
        if (!rep_state_equals(cohort.rep, tx_rep)) {
          cohort.size -= k;
          cohorts.push_back(Cohort{tx_rep, k});
        }
      }
    }
    const auto observed = static_cast<std::int64_t>(state);
    adversary.observe(&observed, 1);

    // Merge: first-occurrence compaction — the same absorption targets
    // and final table as CohortEngine::merge_cohorts' bucketed pass.
    if (cohorts.size() >= 2) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < cohorts.size(); ++i) {
        bool absorbed = false;
        for (std::size_t t = 0; t < kept; ++t) {
          if (rep_state_equals(cohorts[t].rep, cohorts[i].rep)) {
            cohorts[t].size += cohorts[i].size;
            absorbed = true;
            break;
          }
        }
        if (absorbed) continue;
        if (kept != i) cohorts[kept] = cohorts[i];
        ++kept;
      }
      cohorts.erase(cohorts.begin() + static_cast<std::ptrdiff_t>(kept),
                    cohorts.end());
    }

    if (config.stop == StopRule::kFirstSingle) {
      if (state == ChannelState::kSingle) {
        out.elected = true;
        out.leader = static_cast<StationId>(rng.below(config.n));
        break;
      }
    } else {
      bool all_done = true;
      for (const Cohort& cohort : cohorts) {
        if (!cohort.rep.done) {
          all_done = false;
          break;
        }
      }
      if (all_done) {
        out.elected = true;
        break;
      }
    }
  }

  std::uint64_t done_count = 0;
  std::uint64_t leaders = 0;
  for (const Cohort& cohort : cohorts) {
    if (cohort.rep.done) {
      done_count += cohort.size;
      if (cohort.rep.leader) leaders += cohort.size;
    }
  }
  out.all_done = done_count == config.n;
  out.unique_leader = leaders == 1;
  if (leaders == 1 && !out.leader.has_value()) {
    out.leader = static_cast<StationId>(rng.below(config.n));
  }
  if (config.stop == StopRule::kFirstSingle) {
    out.unique_leader = out.elected;
  } else {
    out.elected = out.elected && out.unique_leader;
  }
  slots_accum += out.slots;
  return out;
}

// ---------------------------------------------------------------------------
// Lane engine.
// ---------------------------------------------------------------------------

/// Chunk engine: `count` lanes, one trial per lane, stepped in slot
/// lockstep. Per slot, per cohort position, pass A resolves each
/// lane's binomial plan and pass B consumes the wide group draw; the
/// scalar tail then mirrors CohortEngine::run per lane (resolve,
/// bookkeeping, feedback/split, adversary observe, merge, stop rule).
/// Finished lanes are swap-removed after the sweep; lanes whose cohort
/// table would exceed the cap retire to `rerun`.
///
/// Lane k draws from the sequential trial stream
/// base.child(first + k).child(0x51e0), bit for bit.
template <class Kernel>
void cohort_lanes(const typename Kernel::Params& params,
                  const AdversarySpec& spec, const CohortBatchConfig& config,
                  const Rng& base, std::size_t first, std::size_t count,
                  TrialOutcome* out) {
  const std::uint64_t n = config.n;
  const std::size_t cap = config.cohort_cap;
  WideXoshiro pack(count);
  for (std::size_t k = 0; k < count; ++k) {
    pack.seed_lane(k, base.child(first + k).child(0x51e0).seed());
  }
  const std::size_t padded = pack.padded_lanes();

  CohortWorkspace& workspace = local_cohort_workspace();
  BinomialSamplerCache& cache = workspace.cache;
  const auto rerun = [&](std::uint32_t rel, std::int64_t& slots_accum) {
    LaneAdversaryBank adversary(spec, base, first + rel, 1);
    return scalar_cohort_trial<Kernel>(params, config, adversary,
                                       base.child(first + rel).child(0x51e0),
                                       cache, slots_accum);
  };
  if constexpr (std::is_same_v<Kernel, kernels::LeskKernel>) {
    // LESK's u moves on the {-1, +eps/8} lattice, so steady-state plan
    // lookups hit the dense index (same policy as the aggregate batch
    // engine's SlotProbCache).
    cache.set_lattice_step(Kernel(params).inc);
  }

  // Lane state, lane-major: cohort position c of lane l at l*cap + c.
  const Rep<Kernel> fresh{Kernel(params), false, false};
  std::vector<Rep<Kernel>> reps(count * cap, fresh);
  std::vector<std::uint64_t> sizes(count * cap, 0);
  std::vector<std::uint64_t> tx(count * cap, 0);
  std::vector<std::uint32_t> counts(count, 1);
  std::vector<std::uint32_t> lane_trial(count);
  std::vector<TrialOutcome> acc(count);
  // Lane k's adversary is the sequential runner's
  // make_adversary(spec, base.child(first + k).child(0xad50)).
  LaneAdversaryBank bank(spec, base, first, count);
  for (std::size_t k = 0; k < count; ++k) {
    sizes[k * cap] = n;
    lane_trial[k] = static_cast<std::uint32_t>(k);
  }

  // Per-slot scratch.
  std::vector<const BinomialPlan*> plans(count, nullptr);
  std::vector<std::uint8_t> mask(padded, 0);
  std::vector<std::uint8_t> btpe_mask(padded, 0);
  std::vector<double> first_u(padded, 0.0);
  std::vector<double> second_u(padded, 0.0);
  std::vector<std::uint64_t> totals(count, 0);
  std::vector<std::uint8_t> jammed_v(count, 0);
  std::vector<std::int64_t> lane_states(count, 0);  // fed to observe()
  std::vector<std::uint8_t> finished(count, 0);
  // Per-lane Null/Single/Collision tallies, indexed by ChannelState's
  // value: the slot state is data-dependent, so a branchy counter
  // update mispredicts; the indexed increment doesn't. Folded into the
  // lane's TrialOutcome at finalize time.
  std::vector<std::int64_t> tally(count * 3, 0);

  std::int64_t slots_total = 0;
  std::int64_t rerun_slots = 0;
  std::size_t active = count;

  // Cross-slot uniformity hint. After a dense slot in which EVERY lane
  // resolved Collision, each lane's one kernel took the identical
  // step(kCollision) from an identical u, nobody split, elected, or
  // finalized — so the next slot provably starts with all lanes at one
  // (size, u) and the O(active) probe can be skipped. Sound only for
  // kernels whose observable state is exactly (u, elected): Estimation
  // (inside Lesu) carries round counters that equal broadcast_u() does
  // not pin, so identical feedback can still diverge the next u.
  constexpr bool kUniformHintable =
      std::is_same_v<Kernel, kernels::UniformKernel> ||
      std::is_same_v<Kernel, kernels::LeskKernel>;
  bool uniform_hint = false;

  /// Merge for one lane: first-occurrence compaction over <= cap
  /// entries — same absorption targets and final table as
  /// CohortEngine::merge_cohorts, pairwise because the table is tiny.
  const auto merge_lane = [&](std::size_t l) {
    const std::uint32_t live = counts[l];
    if (live < 2) return;
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < live; ++i) {
      bool absorbed = false;
      for (std::uint32_t t = 0; t < kept; ++t) {
        if (rep_state_equals(reps[l * cap + t], reps[l * cap + i])) {
          sizes[l * cap + t] += sizes[l * cap + i];
          absorbed = true;
          break;
        }
      }
      if (absorbed) continue;
      if (kept != i) {
        reps[l * cap + kept] = reps[l * cap + i];
        sizes[l * cap + kept] = sizes[l * cap + i];
      }
      ++kept;
    }
    counts[l] = kept;
  };

  /// Election-quality bookkeeping, exactly as CohortEngine::run's
  /// tail; writes the lane's outcome and marks it for compaction.
  const auto finalize = [&](std::size_t l) {
    TrialOutcome& o = acc[l];
    o.nulls += tally[l * 3 + 0];
    o.singles += tally[l * 3 + 1];
    o.collisions += tally[l * 3 + 2];
    std::uint64_t done_count = 0;
    std::uint64_t leaders = 0;
    for (std::uint32_t c = 0; c < counts[l]; ++c) {
      if (reps[l * cap + c].done) {
        done_count += sizes[l * cap + c];
        if (reps[l * cap + c].leader) leaders += sizes[l * cap + c];
      }
    }
    o.all_done = done_count == n;
    o.unique_leader = leaders == 1;
    if (leaders == 1 && !o.leader.has_value()) {
      o.leader = static_cast<StationId>(pack.below_lane(l, n));
    }
    if (config.stop == StopRule::kFirstSingle) {
      o.unique_leader = o.elected;
    } else {
      o.elected = o.elected && o.unique_leader;
    }
    out[lane_trial[l]] = o;
    finished[l] = 1;
  };

  for (Slot slot = 0; slot < config.max_slots && active > 0; ++slot) {
    slots_total += static_cast<std::int64_t>(active);
    // Jam bits first: each adversary moves before seeing its lane's
    // coins, exactly as the sequential engine.
    const bool all_jammed =
        bank.step(jammed_v.data(), active) == LaneAdversaryBank::Jams::kAll;
    std::uint32_t max_count = 0;
    for (std::size_t l = 0; l < active; ++l) {
      max_count = std::max(max_count, counts[l]);
    }

    const std::size_t groups = (active + kWideLanes - 1) / kWideLanes;
    // The sequential engine's slot body for one lane: resolve,
    // bookkeeping, feedback/split (overflow retires to the scalar
    // rerun), merge, stop rule. Shared by the fused single-cohort sweep
    // and the generic multi-position path. Each lane's state is queued
    // for the one bank.observe() after the sweep.
    const auto lane_tail = [&](std::size_t l, std::uint64_t total,
                               bool jammed) {
      const ChannelState state = resolve_slot(total, jammed);
      lane_states[l] = static_cast<std::int64_t>(state);
      TrialOutcome& o = acc[l];

      ++o.slots;
      o.jams += static_cast<std::int64_t>(jammed);
      ++tally[l * 3 + static_cast<std::size_t>(state)];
      o.transmissions += static_cast<double>(total);

      const Observation obs_l = observe_slot(state, false, config.cd);
      const Observation obs_t = observe_slot(state, true, config.cd);
      const std::uint32_t live = counts[l];
      bool overflow = false;
      for (std::uint32_t c = 0; c < live; ++c) {
        Rep<Kernel>& rep = reps[l * cap + c];
        const std::uint64_t k = tx[l * cap + c];
        if (k == 0) {
          rep_feedback(rep, false, obs_l);
        } else if (k == sizes[l * cap + c]) {
          rep_feedback(rep, true, obs_t);
        } else if (obs_l == obs_t && obs_l != Observation::kSingle) {
          rep_feedback(rep, false, obs_l);
        } else {
          Rep<Kernel> tx_rep = rep;
          rep_feedback(tx_rep, true, obs_t);
          rep_feedback(rep, false, obs_l);
          if (!rep_state_equals(rep, tx_rep)) {
            if (counts[l] == cap) {
              overflow = true;
              break;
            }
            sizes[l * cap + c] -= k;
            reps[l * cap + counts[l]] = tx_rep;
            sizes[l * cap + counts[l]] = k;
            ++counts[l];
          }
        }
      }
      if (overflow) {
        // The table outgrew the lane: retire to an unbounded scalar
        // rerun of this trial from slot 0 on fresh streams. The lane's
        // partially-advanced state is discarded wholesale.
        JAMELECT_OBS_COUNT("engine.cohort.lane_overflow", 1);
        out[lane_trial[l]] = rerun(lane_trial[l], rerun_slots);
        finished[l] = 1;
        return;
      }
      merge_lane(l);

      if (config.stop == StopRule::kFirstSingle) {
        if (state == ChannelState::kSingle) {
          o.elected = true;
          o.leader = static_cast<StationId>(pack.below_lane(l, n));
          finalize(l);
        }
      } else {
        bool all_done = true;
        for (std::uint32_t c = 0; c < counts[l]; ++c) {
          if (!reps[l * cap + c].done) {
            all_done = false;
            break;
          }
        }
        if (all_done) {
          o.elected = true;
          finalize(l);
        }
      }
    };

    // counts[l] == 1 variant for the max_count == 1 fast paths: the
    // lane's total IS its one cohort's draw, so the table loop and the
    // tx round-trip drop out, and merging is only needed if this very
    // slot split the cohort. Each branch performs the identical
    // operations the generic body would on a one-entry table.
    const auto lane_tail1 = [&](std::size_t l, std::uint64_t total,
                                bool jammed) {
      const ChannelState state = resolve_slot(total, jammed);
      lane_states[l] = static_cast<std::int64_t>(state);
      TrialOutcome& o = acc[l];

      ++o.slots;
      o.jams += static_cast<std::int64_t>(jammed);
      ++tally[l * 3 + static_cast<std::size_t>(state)];
      o.transmissions += static_cast<double>(total);

      const Observation obs_l = observe_slot(state, false, config.cd);
      const Observation obs_t = observe_slot(state, true, config.cd);
      Rep<Kernel>& rep = reps[l * cap];
      bool split = false;
      if (total == 0) {
        rep_feedback(rep, false, obs_l);
      } else if (total == sizes[l * cap]) {
        rep_feedback(rep, true, obs_t);
      } else if (obs_l == obs_t && obs_l != Observation::kSingle) {
        rep_feedback(rep, false, obs_l);
      } else {
        Rep<Kernel> tx_rep = rep;
        rep_feedback(tx_rep, true, obs_t);
        rep_feedback(rep, false, obs_l);
        if (!rep_state_equals(rep, tx_rep)) {
          if (cap == 1) {  // counts[l] == cap: overflow, scalar rerun
            JAMELECT_OBS_COUNT("engine.cohort.lane_overflow", 1);
            out[lane_trial[l]] = rerun(lane_trial[l], rerun_slots);
            finished[l] = 1;
            return;
          }
          sizes[l * cap] -= total;
          reps[l * cap + 1] = tx_rep;
          sizes[l * cap + 1] = total;
          counts[l] = 2;
          split = true;
        }
      }
      if (split) merge_lane(l);

      if (config.stop == StopRule::kFirstSingle) {
        if (state == ChannelState::kSingle) {
          o.elected = true;
          o.leader = static_cast<StationId>(pack.below_lane(l, n));
          finalize(l);
        }
      } else {
        bool all_done = rep.done;
        if (split) {
          all_done = true;
          for (std::uint32_t c = 0; c < counts[l]; ++c) {
            if (!reps[l * cap + c].done) {
              all_done = false;
              break;
            }
          }
        }
        if (all_done) {
          o.elected = true;
          finalize(l);
        }
      }
    };

    // Collision fast tail for the dense sweeps: with total >= 2 (or a
    // jam) the slot resolves Collision no matter what, observe_slot
    // returns kCollision for listener and transmitter alike under
    // strong AND weak CD, and every branch of the generic feedback —
    // total == 0 aside, which needs total >= 1 anyway — reduces to one
    // kern.step(kCollision) with done/leader untouched. No split is
    // possible (obs_l == obs_t != kSingle), no lane elects or
    // finalizes, so the body is counters + one kernel step.
    const auto lane_tail_collide = [&](std::size_t l, std::uint64_t total,
                                       bool jammed) {
      lane_states[l] = static_cast<std::int64_t>(ChannelState::kCollision);
      TrialOutcome& o = acc[l];
      ++o.slots;
      o.jams += static_cast<std::int64_t>(jammed);
      ++tally[l * 3 + static_cast<std::size_t>(ChannelState::kCollision)];
      o.transmissions += static_cast<double>(total);
      reps[l * cap].kern.step(ChannelState::kCollision);
    };

    // Lockstep lanes overwhelmingly share one (size, u) pair per
    // position — every lane starts at (n, u0) and follows the same
    // broadcast schedule until its cohorts split — so the plan lookup
    // is memoized on the previous lane's key.
    std::uint64_t memo_size = 0;
    double memo_u = -1.0;
    const BinomialPlan* memo_plan = nullptr;

    if (max_count == 1) {
      // Fast path: every lane holds exactly one cohort — the steady
      // state, since adapter kernels split at most once per trial and
      // strong-CD splits finish the lane the same slot. Pass B and the
      // scalar tail fuse into one sweep with no per-position
      // scaffolding and no totals round-trip.
      //
      // Uniform-slot probe: while no lane has diverged — true for the
      // whole jam/collision climb, where every slot is a Collision for
      // every lane — all lanes sit at the same (size, u) and share ONE
      // plan, so the per-lane plan/mask scaffolding drops out and the
      // wide draws go dense (advancing retired lanes' dead streams is
      // unobservable; live lanes draw exactly what the masked calls
      // would hand them).
      const BinomialPlan* uplan = nullptr;
      if (kUniformHintable && uniform_hint) {
        uplan = &cache.plan(sizes[0], reps[0].kern.broadcast_u());
      } else {
        const Rep<Kernel>& rep0 = reps[0];
        if (!rep0.done) {
          const std::uint64_t size0 = sizes[0];
          const double u0 = rep0.kern.broadcast_u();
          bool uniform = true;
          for (std::size_t l = 1; l < active; ++l) {
            const Rep<Kernel>& rep = reps[l * cap];
            if (rep.done || sizes[l * cap] != size0 ||
                rep.kern.broadcast_u() != u0) {
              uniform = false;
              break;
            }
          }
          if (uniform) uplan = &cache.plan(size0, u0);
        }
      }
      uniform_hint = false;
      if (uplan != nullptr &&
          uplan->regime == BinomialPlan::Regime::kBtpe) {
        const BinomialPlan& plan = *uplan;
        const BinomialPlan::BtpeSetup& bt = plan.btpe;
        const double p1 = bt.p1;
        const double p4 = bt.p4;
        const double xm = bt.xm;
        const bool refl = plan.reflect;
        const std::uint64_t pn = plan.n;
        pack.uniform_groups2(groups, first_u.data(), second_u.data());
        bool all_collide = true;
        for (std::size_t l = 0; l < active; ++l) {
          const double uu = first_u[l] * p4;
          std::uint64_t k;
          if (uu <= p1) {
            const std::uint64_t y = static_cast<std::uint64_t>(
                std::floor(xm - p1 * second_u[l] + uu));
            k = refl ? pn - y : y;
          } else {
            LaneRng lane_rng{&pack, l};
            k = binomial_plan_draw_first2(plan, first_u[l], second_u[l],
                                          lane_rng);
          }
          const bool jammed = jammed_v[l] != 0;
          if (k >= 2) {
            lane_tail_collide(l, k, jammed);
          } else {
            all_collide = false;
            lane_tail1(l, k, jammed);
          }
        }
        uniform_hint = kUniformHintable && (all_collide || all_jammed);
      } else if (uplan != nullptr &&
                 uplan->regime == BinomialPlan::Regime::kInversion) {
        const BinomialPlan& plan = *uplan;
        pack.uniform_groups(groups, first_u.data());
        bool all_collide = true;
        for (std::size_t l = 0; l < active; ++l) {
          LaneRng lane_rng{&pack, l};
          const std::uint64_t k =
              binomial_plan_draw_first(plan, first_u[l], lane_rng);
          const bool jammed = jammed_v[l] != 0;
          if (k >= 2) {
            lane_tail_collide(l, k, jammed);
          } else {
            all_collide = false;
            lane_tail1(l, k, jammed);
          }
        }
        uniform_hint = kUniformHintable && (all_collide || all_jammed);
      } else if (uplan != nullptr && !uplan->needs_draw()) {
        const std::uint64_t k =
            uplan->regime == BinomialPlan::Regime::kAll ? uplan->n : 0;
        if (k >= 2) {
          for (std::size_t l = 0; l < active; ++l) {
            lane_tail_collide(l, k, jammed_v[l] != 0);
          }
          uniform_hint = kUniformHintable;
        } else {
          for (std::size_t l = 0; l < active; ++l) {
            lane_tail1(l, k, jammed_v[l] != 0);
          }
          uniform_hint = kUniformHintable && all_jammed;
        }
      } else {
        // Mixed slot (or the small-cohort loop regime): per-lane plans
        // with masked group draws.
        for (std::size_t l = 0; l < active; ++l) {
          plans[l] = nullptr;
          mask[l] = 0;
          btpe_mask[l] = 0;
          const Rep<Kernel>& rep = reps[l * cap];
          if (rep.done) continue;  // p == 0: no transmission, no draw
          const std::uint64_t size = sizes[l * cap];
          const double u = rep.kern.broadcast_u();
          if (memo_plan == nullptr || size != memo_size || u != memo_u) {
            memo_plan = &cache.plan(size, u);
            memo_size = size;
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
        pack.uniform_masked(groups, mask.data(), first_u.data());
        // BTPE's first rejection attempt consumes exactly two uniforms
        // (u, then v) before any accept/reject test, so v is grouped
        // too; each lane's stream sees u then v in the sequential order.
        pack.uniform_masked(groups, btpe_mask.data(), second_u.data());
        for (std::size_t l = 0; l < active; ++l) {
          const bool jammed = jammed_v[l] != 0;
          std::uint64_t k = 0;
          if (plans[l] != nullptr) {
            if (btpe_mask[l] != 0) {
              // Triangle accept inlined — btpe_draw's first test on the
              // same expressions, skipping the call on the dominant path.
              const BinomialPlan& plan = *plans[l];
              const BinomialPlan::BtpeSetup& bt = plan.btpe;
              const double u = first_u[l] * bt.p4;
              const double v = second_u[l];
              if (u <= bt.p1) {
                const std::uint64_t y = static_cast<std::uint64_t>(
                    std::floor(bt.xm - bt.p1 * v + u));
                k = plan.reflect ? plan.n - y : y;
              } else {
                LaneRng lane_rng{&pack, l};
                k = binomial_plan_draw_first2(plan, first_u[l], second_u[l],
                                              lane_rng);
              }
            } else if (mask[l] != 0) {
              LaneRng lane_rng{&pack, l};
              k = binomial_plan_draw_first(*plans[l], first_u[l], lane_rng);
            } else {
              k = plans[l]->regime == BinomialPlan::Regime::kAll ? plans[l]->n
                                                                 : 0;
            }
          }
          lane_tail1(l, k, jammed);
        }
      }
    } else {
      uniform_hint = false;  // unreachable while the hint holds; defensive
      for (std::size_t l = 0; l < active; ++l) totals[l] = 0;
      for (std::uint32_t pos = 0; pos < max_count; ++pos) {
        // Pass A: resolve each lane's plan for this cohort position; the
        // mask marks lanes whose plan consumes at least one uniform, the
        // BTPE mask the lanes whose first rejection attempt always
        // consumes a second.
        for (std::size_t l = 0; l < active; ++l) {
          plans[l] = nullptr;
          mask[l] = 0;
          btpe_mask[l] = 0;
          if (pos >= counts[l]) continue;
          const Rep<Kernel>& rep = reps[l * cap + pos];
          if (rep.done) {  // p == 0: no transmission, no draw
            tx[l * cap + pos] = 0;
            continue;
          }
          const std::uint64_t size = sizes[l * cap + pos];
          const double u = rep.kern.broadcast_u();
          if (memo_plan == nullptr || size != memo_size || u != memo_u) {
            memo_plan = &cache.plan(size, u);
            memo_size = size;
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
        pack.uniform_masked(groups, mask.data(), first_u.data());
        // BTPE's first rejection attempt consumes exactly two uniforms
        // (u, then v) before any accept/reject test, so v is grouped
        // too; each lane's stream sees u then v in the sequential order.
        pack.uniform_masked(groups, btpe_mask.data(), second_u.data());
        // Pass B: finish each lane's draw. Remainder uniforms come off
        // the lane's own stream before the next position's group draw,
        // so per-lane draw order matches the sequential engine exactly.
        for (std::size_t l = 0; l < active; ++l) {
          if (plans[l] == nullptr) continue;
          std::uint64_t k;
          if (btpe_mask[l] != 0) {
            // Triangle accept inlined — btpe_draw's first test on the
            // same expressions, skipping the call on the dominant path.
            const BinomialPlan& plan = *plans[l];
            const BinomialPlan::BtpeSetup& bt = plan.btpe;
            const double u = first_u[l] * bt.p4;
            const double v = second_u[l];
            if (u <= bt.p1) {
              const std::uint64_t y =
                  static_cast<std::uint64_t>(std::floor(bt.xm - bt.p1 * v + u));
              k = plan.reflect ? plan.n - y : y;
            } else {
              LaneRng lane_rng{&pack, l};
              k = binomial_plan_draw_first2(plan, first_u[l], second_u[l],
                                            lane_rng);
            }
          } else if (mask[l] != 0) {
            LaneRng lane_rng{&pack, l};
            k = binomial_plan_draw_first(*plans[l], first_u[l], lane_rng);
          } else {
            k = plans[l]->regime == BinomialPlan::Regime::kAll ? plans[l]->n
                                                               : 0;
          }
          tx[l * cap + pos] = k;
          totals[l] += k;
        }
      }
  
      // Scalar tail: per lane, the shared slot body on the summed total.
      for (std::size_t l = 0; l < active; ++l) {
        lane_tail(l, totals[l], jammed_v[l] != 0);
      }
    }
    bank.observe(lane_states.data(), active);

    // Swap-remove finished lanes. The swapped-in source lane may
    // itself have finished this slot, so don't advance until the
    // current index holds a live lane.
    std::size_t l = 0;
    while (l < active) {
      if (finished[l] == 0) {
        ++l;
        continue;
      }
      --active;
      if (l != active) {
        for (std::size_t c = 0; c < cap; ++c) {
          reps[l * cap + c] = reps[active * cap + c];
          sizes[l * cap + c] = sizes[active * cap + c];
        }
        counts[l] = counts[active];
        acc[l] = acc[active];
        tally[l * 3 + 0] = tally[active * 3 + 0];
        tally[l * 3 + 1] = tally[active * 3 + 1];
        tally[l * 3 + 2] = tally[active * 3 + 2];
        lane_trial[l] = lane_trial[active];
        bank.move_lane(l, active);
        finished[l] = finished[active];
        pack.move_lane(l, active);
      }
      finished[active] = 0;
    }
  }

  // Censored lanes: slot budget exhausted with trials in flight.
  for (std::size_t l = 0; l < active; ++l) finalize(l);

  JAMELECT_OBS_COUNT("engine.batch.cohort_chunks", 1);
  JAMELECT_OBS_COUNT("engine.batch.slots", slots_total + rerun_slots);
  JAMELECT_OBS_COUNT("mc.batch_wide_slots", slots_total);
  if (rerun_slots > 0) {
    JAMELECT_OBS_COUNT("mc.batch_scalar_slots", rerun_slots);
  }
  workspace.emit_cache_counters();
}

}  // namespace

std::optional<CohortKernelSpec> cohort_batch_spec(
    const std::function<StationProtocolPtr()>& prototype_factory) {
  const StationProtocolPtr a = prototype_factory();
  const StationProtocolPtr b = prototype_factory();
  if (a == nullptr || b == nullptr) return std::nullopt;
  const auto* adapter = dynamic_cast<const UniformStationAdapter*>(a.get());
  if (adapter == nullptr) return std::nullopt;
  // The factory must be pure (two draws in identical state) and the
  // prototype unstarted: kernels always begin fresh from their params,
  // so a warm-started or stateful factory must take the virtual path.
  if (a->done() || a->is_leader()) return std::nullopt;
  if (!a->state_equals(*b)) return std::nullopt;
  const auto kernel = batch_kernel_spec(adapter->protocol());
  if (!kernel.has_value()) return std::nullopt;
  // Only the paper's uniform protocols run in cohort lanes; the
  // baseline kernels keep their dedicated batch engines.
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

void run_cohort_batch_trials(const CohortKernelSpec& spec,
                             const AdversarySpec& adversary,
                             const CohortBatchConfig& config, const Rng& base,
                             std::size_t first, std::size_t count,
                             TrialOutcome* out) {
  JAMELECT_EXPECTS(config.n >= 1);
  JAMELECT_EXPECTS(config.max_slots >= 1);
  JAMELECT_EXPECTS(config.cohort_cap >= 1);
  JAMELECT_EXPECTS(count >= 1);
  std::visit(
      [&](const auto& params) {
        using Kernel =
            typename KernelFor<std::decay_t<decltype(params)>>::type;
        cohort_lanes<Kernel>(params, adversary, config, base, first, count,
                             out);
      },
      spec);
}

}  // namespace jamelect
