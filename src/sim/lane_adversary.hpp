// LaneAdversaryBank — the jam source of the wide batch engines.
//
// The sequential engines give every trial its own BoundedAdversary (one
// virtual policy + one JammingBudget each). This bank stands in for a
// whole chunk of them, one lane per trial, for every policy
// make_adversary accepts:
//
//  * lane-invariant policies (none, saturating, periodic, pulse,
//    interval_buster) decide from (slot, own budget) alone — no rng
//    draws, no observe() feedback — so every lane's scalar twin makes
//    the same move. The bank holds ONE BoundedAdversary, seeded from
//    base.child(first).child(0xad50), steps it once per slot and
//    broadcasts its bit; observe() and move_lane() are no-ops.
//  * the adaptive built-ins run as structure-of-arrays lanes with no
//    virtual dispatch:
//    - bernoulli         — one WideXoshiro lane per trial, seeded
//      exactly like the scalar policy stream (base.child(first + k)
//      .child(0xad50).child(0x6a616d)), one uniform per lane per slot
//      for 0 < q < 1 and NO draws for degenerate q (the Rng::bernoulli
//      contract).
//    - single_denial     — per-lane LeskEstimateMirror u plus a cached
//      desire bit, refreshed from observe(); the desire for a given u
//      is memoized on u's bit pattern (a small direct-mapped table in
//      front of a hash map) so the slot_probabilities() evaluation runs
//      once per distinct estimate, exactly as the scalar policy would
//      compute it.
//    - collision_forcer  — same mirror, collision-threshold trigger.
//
//    Their (T, 1-eps) budget filter is replicated per lane with the
//    exact integer recurrence of JammingBudget (adversary/budget.cpp):
//    per-lane B, window_jams and a slot-major ring of the last T jam
//    flags. All lanes advance in lockstep, so the ring cursor is
//    shared. step() first writes every lane's policy desire, then runs
//    the recurrence as branch-free mask arithmetic over the lanes.
//
// Either way, lane k of a bank constructed with (spec, base, first,
// count) jams on exactly the slots the scalar make_adversary(spec,
// base.child(first + k).child(0xad50)) adversary would jam, bit for
// bit, when both are fed the same public states.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "adversary/adversary.hpp"
#include "sim/adversary_spec.hpp"
#include "support/rng.hpp"
#include "support/wide_rng.hpp"

namespace jamelect {

class LaneAdversaryBank {
 public:
  /// How one slot's jams fall across the live lanes.
  enum class Jams : std::uint8_t { kNone, kAll, kSome };

  /// One lane per trial: lane k replicates
  /// make_adversary(spec, base.child(first + k).child(0xad50)). A
  /// policy name make_adversary does not know is a ContractViolation.
  LaneAdversaryBank(const AdversarySpec& spec, const Rng& base,
                    std::size_t first, std::size_t count);

  /// Decides and commits one slot for lanes [0, active): jam[k] is set
  /// to 1 iff lane k jams this slot (policy desire AND budget allows).
  /// Equivalent to calling BoundedAdversary::step() on each lane's
  /// scalar twin. The result says whether no, every or only some live
  /// lanes jam.
  Jams step(std::uint8_t* jam, std::size_t active);

  /// Feeds the slot's public channel state back to each lane's policy;
  /// states[k] uses the wide engines' category codes (0 = Null,
  /// 1 = Single, 2 = Collision) which match ChannelState's values.
  /// Equivalent to BoundedAdversary::observe() per lane.
  void observe(const std::int64_t* states, std::size_t active);

  /// Swap-remove compaction hook: lane `dst` takes over lane `src`'s
  /// full adversary state (budget, policy, RNG stream).
  void move_lane(std::size_t dst, std::size_t src);

  /// Exchanges the full adversary states of lanes `a` and `b` (the
  /// hybrid lanes' phase-partition moves).
  void swap_lanes(std::size_t a, std::size_t b);

 private:
  enum class Kind : std::uint8_t {
    kShared,
    kBernoulli,
    kSingleDenial,
    kCollisionForcer
  };

  [[nodiscard]] std::uint8_t desire_for(double u);
  [[nodiscard]] std::uint8_t desire_miss(double u, std::uint64_t key);

  Kind kind_;
  std::size_t lanes_;
  std::int64_t T_;
  EpsRatio eps_;

  // Lane-invariant policies: the one adversary every lane shares.
  std::unique_ptr<BoundedAdversary> shared_;

  // Per-lane budget state; the ring is slot-major (ring position t holds
  // entries [t*lanes_, (t+1)*lanes_)) and all lanes share one cursor
  // (lockstep slots), so a slot reads and writes one contiguous row.
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
  // the desire bit it implies, plus the memo of desire-by-estimate: a
  // direct-mapped table keyed on u's bits answers the per-lane,
  // per-slot probe, and the hash map behind it holds every estimate
  // seen (so an evicted entry is never recomputed).
  struct MemoSlot {
    std::uint64_t key;
    std::uint8_t desire;
  };
  static constexpr int kMemoBits = 8;
  double increment_ = 0.0;
  std::uint64_t n_ = 0;
  double threshold_ = 0.0;
  std::vector<double> u_;
  std::vector<std::uint8_t> desire_;
  std::vector<MemoSlot> memo_;
  std::unordered_map<std::uint64_t, std::uint8_t> desire_memo_;
};

}  // namespace jamelect
