#include "sim/lane_adversary.hpp"

#include <algorithm>
#include <bit>

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
    : T_(spec.T), eps_(EpsRatio::from_double(spec.eps)) {
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
  u_.assign(count, 0.0);
  desire_.assign(count, desire_for(0.0) ? 1 : 0);
}

bool LaneAdversaryBank::desire_for(double u) {
  const std::uint64_t key = std::bit_cast<std::uint64_t>(u);
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
  desire_memo_.emplace(key, desire);
  return desire;
}

LaneAdversaryBank::Jams LaneAdversaryBank::step(std::uint8_t* jam,
                                                std::size_t active) {
  if (kind_ == Kind::kShared) {
    const bool jammed = shared_->step();
    std::fill(jam, jam + active, static_cast<std::uint8_t>(jammed));
    return jammed ? Jams::kAll : Jams::kNone;
  }
  // Policy desires first (the scalar path always evaluates desires_jam
  // before consulting the budget — the draw happens even when the
  // budget would veto the jam).
  if (kind_ == Kind::kBernoulli && q_ <= 0.0) {
    // Never desires, never draws. The budget is only ever read to veto
    // a desired jam, so skipping the per-lane commit cannot change any
    // output.
    std::fill(jam, jam + active, std::uint8_t{0});
    return Jams::kNone;
  }

  const std::int64_t den = eps_.den;
  const std::int64_t num = eps_.num;
  const std::int64_t decay = den - num;
  const auto pos = static_cast<std::size_t>(ring_pos_);
  const auto T = static_cast<std::size_t>(T_);

  if (kind_ == Kind::kBernoulli && q_ > 0.0 && q_ < 1.0) {
    const std::size_t groups = (active + kWideLanes - 1) / kWideLanes;
    rng_->uniform_groups(groups, draws_.data());
  }

  std::size_t jammed = 0;
  for (std::size_t k = 0; k < active; ++k) {
    const bool desires = kind_ == Kind::kBernoulli
                             ? (q_ >= 1.0 || draws_[k] < q_)
                             : desire_[k] != 0;
    // JammingBudget::can_jam + commit, inlined per lane with the shared
    // ring cursor (budget.cpp's exact recurrence).
    std::uint8_t* const ring = ring_.data() + k * T;
    const std::int64_t evicted = ring[pos];
    const std::int64_t hyp_jam =
        std::max(b_[k] + num, den * (window_jams_[k] - evicted + 1) - decay * T_);
    const bool jam_k = desires && hyp_jam <= 0;
    b_[k] = jam_k ? hyp_jam
                  : std::max(b_[k] - decay,
                             den * (window_jams_[k] - evicted) - decay * T_);
    window_jams_[k] += (jam_k ? 1 : 0) - evicted;
    ring[pos] = jam_k ? 1 : 0;
    jam[k] = jam_k ? 1 : 0;
    jammed += jam_k ? 1 : 0;
  }
  ring_pos_ = (ring_pos_ + 1) % T_;
  if (jammed == 0) return Jams::kNone;
  return jammed == active ? Jams::kAll : Jams::kSome;
}

void LaneAdversaryBank::observe(const std::int64_t* states,
                                std::size_t active) {
  // Lane-invariant and bernoulli policies have no observe() override.
  if (kind_ == Kind::kShared || kind_ == Kind::kBernoulli) return;
  for (std::size_t k = 0; k < active; ++k) {
    switch (states[k]) {
      case 0:  // Null
        u_[k] = std::max(0.0, u_[k] - 1.0);
        break;
      case 2:  // Collision
        u_[k] += increment_;
        break;
      default:  // Single: the protocol has terminated; tracking is moot
        continue;
    }
    desire_[k] = desire_for(u_[k]) ? 1 : 0;
  }
}

void LaneAdversaryBank::move_lane(std::size_t dst, std::size_t src) {
  if (dst == src || kind_ == Kind::kShared) return;
  b_[dst] = b_[src];
  window_jams_[dst] = window_jams_[src];
  const auto T = static_cast<std::size_t>(T_);
  std::copy_n(ring_.data() + src * T, T, ring_.data() + dst * T);
  if (rng_) rng_->move_lane(dst, src);
  if (!u_.empty()) {
    u_[dst] = u_[src];
    desire_[dst] = desire_[src];
  }
}

}  // namespace jamelect
