#include "adversary/policies.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace jamelect {

PeriodicPolicy::PeriodicPolicy(std::int64_t period, std::int64_t burst)
    : period_(period), burst_(burst) {
  JAMELECT_EXPECTS(period >= 1);
  JAMELECT_EXPECTS(burst >= 0 && burst <= period);
}

bool PeriodicPolicy::desires_jam(Slot slot, const JammingBudget&) {
  return (slot % period_) < burst_;
}

BernoulliPolicy::BernoulliPolicy(double q, Rng rng) : q_(q), rng_(rng) {
  JAMELECT_EXPECTS(q >= 0.0 && q <= 1.0);
}

bool BernoulliPolicy::desires_jam(Slot, const JammingBudget&) {
  return rng_.bernoulli(q_);
}

PulsePolicy::PulsePolicy(std::int64_t on, std::int64_t off) : on_(on), off_(off) {
  JAMELECT_EXPECTS(on >= 1);
  JAMELECT_EXPECTS(off >= 0);
  // desires_jam reduces the slot modulo on + off.
  JAMELECT_EXPECTS(off <= std::numeric_limits<std::int64_t>::max() - on);
}

bool PulsePolicy::desires_jam(Slot slot, const JammingBudget&) {
  return (slot % (on_ + off_)) < on_;
}

LeskEstimateMirror::LeskEstimateMirror(double protocol_eps)
    : increment_(protocol_eps / 8.0) {
  JAMELECT_EXPECTS(protocol_eps > 0.0 && protocol_eps <= 1.0);
}

void LeskEstimateMirror::observe(ChannelState public_state) noexcept {
  switch (public_state) {
    case ChannelState::kNull:
      u_ = std::max(0.0, u_ - 1.0);
      break;
    case ChannelState::kCollision:
      u_ += increment_;
      break;
    case ChannelState::kSingle:
      break;  // the protocol has terminated; tracking is moot
  }
}

SingleDenialPolicy::SingleDenialPolicy(double protocol_eps, std::uint64_t n,
                                       double threshold)
    : mirror_(protocol_eps), n_(n), threshold_(threshold) {
  JAMELECT_EXPECTS(n >= 1);
  JAMELECT_EXPECTS(threshold > 0.0 && threshold < 1.0);
}

bool SingleDenialPolicy::desires_jam(Slot, const JammingBudget&) {
  const double p = transmit_probability(mirror_.u());
  return slot_probabilities(n_, p).single >= threshold_;
}

void SingleDenialPolicy::observe(const AdversaryView& view) {
  mirror_.observe(view.public_state);
}

OracleDenialPolicy::OracleDenialPolicy(UniformProtocolPtr mirror,
                                       std::uint64_t n, double threshold)
    : mirror_(std::move(mirror)), n_(n), threshold_(threshold) {
  JAMELECT_EXPECTS(mirror_ != nullptr);
  JAMELECT_EXPECTS(n >= 1);
  JAMELECT_EXPECTS(threshold > 0.0 && threshold < 1.0);
}

bool OracleDenialPolicy::desires_jam(Slot, const JammingBudget&) {
  const double p = mirror_->transmit_probability();
  return slot_probabilities(n_, p).single >= threshold_;
}

void OracleDenialPolicy::observe(const AdversaryView& view) {
  mirror_->observe(view.public_state);
}

CollisionForcerPolicy::CollisionForcerPolicy(double protocol_eps,
                                             std::uint64_t n, double threshold)
    : mirror_(protocol_eps), n_(n), threshold_(threshold) {
  JAMELECT_EXPECTS(n >= 1);
  JAMELECT_EXPECTS(threshold > 0.0 && threshold <= 1.0);
}

bool CollisionForcerPolicy::desires_jam(Slot, const JammingBudget&) {
  const double p = transmit_probability(mirror_.u());
  return slot_probabilities(n_, p).collision < threshold_;
}

void CollisionForcerPolicy::observe(const AdversaryView& view) {
  mirror_.observe(view.public_state);
}

}  // namespace jamelect
