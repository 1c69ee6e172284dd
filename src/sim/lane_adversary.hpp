// LaneAdversaryBank — SoA lane-variant adversaries for the wide batch
// engines.
//
// The sequential engines give every trial its own BoundedAdversary (one
// virtual policy + one JammingBudget each). This bank lifts
// the three adaptive built-in policies into structure-of-arrays state so
// a whole chunk of lanes advances per slot with no virtual dispatch:
//
//  * bernoulli         — one WideXoshiro lane per trial, seeded exactly
//    like the scalar policy stream (base.child(first + k).child(0xad50)
//    .child(0x6a616d)), one uniform per lane per slot for 0 < q < 1 and
//    NO draws for degenerate q (the Rng::bernoulli contract).
//  * single_denial     — per-lane LeskEstimateMirror u plus a cached
//    desire bit, refreshed from observe(); the desire for a given u is
//    memoized on u's bit pattern so the slot_probabilities() evaluation
//    runs once per distinct estimate, exactly as the scalar policy
//    would compute it.
//  * collision_forcer  — same mirror, collision-threshold trigger.
//
// The (T, 1-eps) budget filter is replicated per lane with the exact
// integer recurrence of JammingBudget (adversary/budget.cpp): per-lane
// B, window_jams and a lane-major ring of the last T jam flags. All
// lanes advance in lockstep, so the ring cursor is shared. Lane k of a
// bank constructed with (spec, base, first, count) jams on exactly the
// slots the scalar make_adversary(spec, base.child(first + k)
// .child(0xad50)) adversary would jam, bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "adversary/budget.hpp"
#include "sim/adversary_spec.hpp"
#include "support/rng.hpp"
#include "support/wide_rng.hpp"

namespace jamelect {

class LaneAdversaryBank {
 public:
  /// True iff `spec` names a policy this bank replicates. Policies that
  /// are lane-invariant (none, saturating, periodic, pulse,
  /// interval_buster) are handled by the shared-adversary wide path and
  /// deliberately NOT supported here.
  [[nodiscard]] static bool supports(const AdversarySpec& spec) noexcept;

  /// One lane per trial: lane k replicates
  /// make_adversary(spec, base.child(first + k).child(0xad50)).
  LaneAdversaryBank(const AdversarySpec& spec, const Rng& base,
                    std::size_t first, std::size_t count);

  /// Decides and commits one slot for lanes [0, active): jam[k] is set
  /// to 1 iff lane k jams this slot (policy desire AND budget allows).
  /// Equivalent to calling BoundedAdversary::step() on each lane's
  /// scalar twin.
  void step(std::uint8_t* jam, std::size_t active);

  /// Feeds the slot's public channel state back to each lane's policy;
  /// states[k] uses the wide engines' category codes (0 = Null,
  /// 1 = Single, 2 = Collision) which match ChannelState's values.
  /// Equivalent to BoundedAdversary::observe() per lane.
  void observe(const std::int64_t* states, std::size_t active);

  /// Swap-remove compaction hook: lane `dst` takes over lane `src`'s
  /// full adversary state (budget, policy, RNG stream).
  void move_lane(std::size_t dst, std::size_t src);

 private:
  enum class Kind : std::uint8_t { kBernoulli, kSingleDenial, kCollisionForcer };

  [[nodiscard]] bool desire_for(double u);

  Kind kind_;
  std::int64_t T_;
  EpsRatio eps_;

  // Per-lane budget state; the ring is lane-major (lane k owns entries
  // [k*T, (k+1)*T)) and all lanes share one cursor (lockstep slots).
  std::vector<std::int64_t> b_;
  std::vector<std::int64_t> window_jams_;
  std::vector<std::uint8_t> ring_;
  std::int64_t ring_pos_ = 0;

  // bernoulli: per-lane policy stream + this slot's draws. Engaged only
  // for 0 < q < 1 (degenerate q consumes no randomness in the scalar
  // policy either).
  double q_ = 0.0;
  std::optional<WideXoshiro> rng_;
  std::vector<double> draws_;

  // single_denial / collision_forcer: per-lane mirrored estimate and
  // the desire bit it implies, plus the memo of desire-by-estimate.
  double increment_ = 0.0;
  std::uint64_t n_ = 0;
  double threshold_ = 0.0;
  std::vector<double> u_;
  std::vector<std::uint8_t> desire_;
  std::unordered_map<std::uint64_t, bool> desire_memo_;
};

}  // namespace jamelect
