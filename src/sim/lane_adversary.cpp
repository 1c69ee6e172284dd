#include "sim/lane_adversary.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "support/expects.hpp"
#include "support/math.hpp"

namespace jamelect {

namespace {

/// Policies whose jam schedule is a deterministic function of (slot,
/// own budget) alone — no rng draws, no observe() feedback — produce
/// the identical bit sequence in every lane, so one adversary instance
/// can serve the whole chunk with a single step() per slot.
[[nodiscard]] bool lane_invariant_policy(const AdversarySpec& spec) {
  return spec.policy == "none" || spec.policy == "saturating" ||
         spec.policy == "periodic" || spec.policy == "pulse" ||
         spec.policy == "interval_buster";
}

}  // namespace

LaneAdversaryBank::LaneAdversaryBank(const AdversarySpec& spec,
                                     const Rng& base, std::size_t first,
                                     std::size_t count)
    : lanes_(count), T_(spec.T), eps_(EpsRatio::from_double(spec.eps)) {
  JAMELECT_EXPECTS(count >= 1);
  JAMELECT_EXPECTS(spec.T >= 1);
  if (lane_invariant_policy(spec)) {
    kind_ = Kind::kShared;
    shared_ = make_adversary(spec, base.child(first).child(0xad50));
    return;
  }
  JAMELECT_EXPECTS(spec.policy == "bernoulli" ||
                   spec.policy == "single_denial" ||
                   spec.policy == "collision_forcer");

  // Same initial budget as JammingBudget's constructor: a virtual
  // unjammed window of length T, B = -(den-num)*T, zeroed ring.
  b_.assign(count, -(eps_.den - eps_.num) * T_);
  window_jams_.assign(count, 0);
  ring_.assign(count * static_cast<std::size_t>(T_), 0);

  const double protocol_eps =
      spec.protocol_eps > 0.0 ? spec.protocol_eps : spec.eps;

  if (spec.policy == "bernoulli") {
    kind_ = Kind::kBernoulli;
    q_ = spec.q > 0.0 ? spec.q : 1.0 - spec.eps;
    JAMELECT_EXPECTS(q_ >= 0.0 && q_ <= 1.0);
    if (q_ > 0.0 && q_ < 1.0) {
      rng_.emplace(count);
      for (std::size_t k = 0; k < count; ++k) {
        // The scalar policy stream: trial rng -> adversary child
        // (0xad50) -> bernoulli child (0x6a616d), always xoshiro.
        rng_->seed_lane(
            k, base.child(first + k).child(0xad50).child(0x6a616d).seed());
      }
      draws_.assign(rng_->padded_lanes(), 0.0);
    }
    return;
  }

  // Mirror policies. Replicate the scalar constructors' contracts:
  // LeskEstimateMirror requires protocol_eps in (0, 1], both policies
  // require n >= 1, single_denial's threshold lies in (0, 1) and
  // collision_forcer's in (0, 1].
  JAMELECT_EXPECTS(protocol_eps > 0.0 && protocol_eps <= 1.0);
  JAMELECT_EXPECTS(spec.n >= 1);
  increment_ = protocol_eps / 8.0;
  n_ = spec.n;
  if (spec.policy == "single_denial") {
    kind_ = Kind::kSingleDenial;
    threshold_ = spec.threshold;
    JAMELECT_EXPECTS(threshold_ > 0.0 && threshold_ < 1.0);
  } else {
    kind_ = Kind::kCollisionForcer;
    threshold_ = spec.collision_threshold;
    JAMELECT_EXPECTS(threshold_ > 0.0 && threshold_ <= 1.0);
  }
  // All-ones is a NaN pattern; a mirrored estimate is never NaN.
  memo_.assign(std::size_t{1} << kMemoBits, MemoSlot{~std::uint64_t{0}, 0});
  u_.assign(count, 0.0);
  desire_.assign(count, desire_for(0.0));
}

std::uint8_t LaneAdversaryBank::desire_for(double u) {
  const std::uint64_t key = std::bit_cast<std::uint64_t>(u);
  // Fibonacci hashing: lattice estimates differ in few mantissa bits,
  // and dyadic ones end in long runs of zeros, so take the top bits of
  // the product.
  MemoSlot& slot = memo_[(key * 0x9e3779b97f4a7c15ULL) >> (64 - kMemoBits)];
  if (slot.key != key) slot = MemoSlot{key, desire_miss(u, key)};
  return slot.desire;
}

std::uint8_t LaneAdversaryBank::desire_miss(double u, std::uint64_t key) {
  const auto it = desire_memo_.find(key);
  if (it != desire_memo_.end()) return it->second;
  // The scalar policies evaluate slot_probabilities directly from the
  // mirrored estimate; do the same (never reconstruct these from
  // SlotProbCache cumulative thresholds — different rounding).
  const SlotProbabilities probs =
      slot_probabilities(n_, transmit_probability(u));
  const bool desire = kind_ == Kind::kSingleDenial
                          ? probs.single >= threshold_
                          : probs.collision < threshold_;
  desire_memo_.emplace(key, desire ? 1 : 0);
  return desire ? 1 : 0;
}

LaneAdversaryBank::Jams LaneAdversaryBank::step(std::uint8_t* jam,
                                                std::size_t active) {
  if (kind_ == Kind::kShared) {
    const bool jammed = shared_->step();
    std::fill(jam, jam + active, static_cast<std::uint8_t>(jammed));
    return jammed ? Jams::kAll : Jams::kNone;
  }
  if (kind_ == Kind::kBernoulli && q_ <= 0.0) {
    // Never desires, never draws. The budget is only ever read to veto
    // a desired jam, so skipping the per-lane commit cannot change any
    // output.
    std::fill(jam, jam + active, std::uint8_t{0});
    return Jams::kNone;
  }

  // Policy desires first, into jam[] (the scalar path always evaluates
  // desires_jam before consulting the budget — the draw happens even
  // when the budget would veto the jam).
  if (kind_ == Kind::kBernoulli) {
    if (rng_) {
      const std::size_t groups = (active + kWideLanes - 1) / kWideLanes;
      rng_->uniform_groups(groups, draws_.data());
      const double q = q_;
      const double* const draws = draws_.data();
      for (std::size_t k = 0; k < active; ++k) jam[k] = draws[k] < q ? 1 : 0;
    } else {
      std::fill(jam, jam + active, std::uint8_t{1});  // q >= 1
    }
  } else {
    std::copy_n(desire_.data(), active, jam);
  }

  // JammingBudget::can_jam + commit per lane with the shared ring
  // cursor (budget.cpp's exact recurrence), as mask arithmetic: both
  // successor budgets are computed and the all-ones/all-zeros jam mask
  // selects one, so a random desire costs no mispredicted branch.
  const std::int64_t den = eps_.den;
  const std::int64_t num = eps_.num;
  const std::int64_t decay = den - num;
  const std::int64_t floor = decay * T_;
  std::uint8_t* const ring =
      ring_.data() + static_cast<std::size_t>(ring_pos_) * lanes_;
  std::int64_t* const budget = b_.data();
  std::int64_t* const window = window_jams_.data();
  std::int64_t jammed = 0;
  for (std::size_t k = 0; k < active; ++k) {
    const std::int64_t b = budget[k];
    const std::int64_t evicted = ring[k];
    const std::int64_t kept = window[k] - evicted;
    const std::int64_t b_jam = std::max(b + num, den * (kept + 1) - floor);
    const std::int64_t b_idle = std::max(b - decay, den * kept - floor);
    const std::int64_t j = jam[k] & static_cast<std::int64_t>(b_jam <= 0);
    const std::int64_t m = -j;
    budget[k] = (b_jam & m) | (b_idle & ~m);
    window[k] = kept + j;
    ring[k] = static_cast<std::uint8_t>(j);
    jam[k] = static_cast<std::uint8_t>(j);
    jammed += j;
  }
  ring_pos_ = (ring_pos_ + 1) % T_;
  if (jammed == 0) return Jams::kNone;
  return static_cast<std::size_t>(jammed) == active ? Jams::kAll
                                                    : Jams::kSome;
}

void LaneAdversaryBank::observe(const std::int64_t* states,
                                std::size_t active) {
  // Lane-invariant and bernoulli policies have no observe() override.
  if (kind_ == Kind::kShared || kind_ == Kind::kBernoulli) return;
  for (std::size_t k = 0; k < active; ++k) {
    // LeskEstimateMirror::observe as a table select indexed by the
    // state code: Null walks down, a Collision up, a Single (the
    // protocol has terminated) leaves u — and so its desire — as it was.
    const double u = u_[k];
    const double next_by_state[3] = {std::max(0.0, u - 1.0), u,
                                     u + increment_};
    const double next = next_by_state[states[k]];
    u_[k] = next;
    desire_[k] = desire_for(next);
  }
}

void LaneAdversaryBank::move_lane(std::size_t dst, std::size_t src) {
  if (dst == src || kind_ == Kind::kShared) return;
  b_[dst] = b_[src];
  window_jams_[dst] = window_jams_[src];
  for (std::size_t t = 0; t < static_cast<std::size_t>(T_); ++t) {
    ring_[t * lanes_ + dst] = ring_[t * lanes_ + src];
  }
  if (rng_) rng_->move_lane(dst, src);
  if (!u_.empty()) {
    u_[dst] = u_[src];
    desire_[dst] = desire_[src];
  }
}

void LaneAdversaryBank::swap_lanes(std::size_t a, std::size_t b) {
  if (a == b || kind_ == Kind::kShared) return;
  std::swap(b_[a], b_[b]);
  std::swap(window_jams_[a], window_jams_[b]);
  for (std::size_t t = 0; t < static_cast<std::size_t>(T_); ++t) {
    std::swap(ring_[t * lanes_ + a], ring_[t * lanes_ + b]);
  }
  if (rng_) rng_->swap_lanes(a, b);
  if (!u_.empty()) {
    std::swap(u_[a], u_[b]);
    std::swap(desire_[a], desire_[b]);
  }
}

}  // namespace jamelect
