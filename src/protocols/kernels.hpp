// POD protocol kernels for the batched Monte-Carlo engine (sim/batch.hpp).
//
// A kernel is the flat, devirtualized twin of one uniform protocol
// class: a trivially-copyable state struct with an inlineable
// `step(ChannelState)` transition. The virtual classes (protocols/
// lesk.hpp, lesu.hpp, plain_uniform.hpp) stay the generic path and the
// equivalence oracle — tests/kernel_equivalence_test.cpp locks every
// kernel to its class step-for-step.
//
// Bit-identity contract: a kernel must reproduce its class's per-slot
// behavior EXACTLY, floating point included. Every double here is
// computed by the same expression as in the class (e.g. LeskKernel's
// collision increment is 1.0 / (8.0 / eps), never the algebraically
// equal eps / 8.0 — different rounding), so driving a kernel and its
// class with the same observation stream yields bit-identical
// transmit probabilities, and the batch engine's TrialOutcomes match
// the sequential engines bit for bit.
//
// Instead of a transmit probability, kernels expose `broadcast_u()`:
// the exponent u of the paper's Broadcast(u), with p = min(1, 2^-u)
// (support/math.hpp transmit_probability). Keeping u — which moves on
// the {-1, +eps/8} lattice — as the interface is what lets the batch
// engine collapse the per-slot exp/log1p evaluations into a
// SlotProbCache hash lookup keyed on u's bit pattern.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "channel/types.hpp"
#include "protocols/lesk.hpp"
#include "protocols/lesu.hpp"
#include "protocols/plain_uniform.hpp"
#include "support/expects.hpp"
#include "support/math.hpp"

namespace jamelect::kernels {

/// Twin of PlainUniform: fixed broadcast exponent, elect on Single.
struct UniformKernel {
  using Params = PlainUniformParams;

  double u;
  bool elected;

  explicit UniformKernel(const Params& params)
      : u(params.u), elected(false) {
    JAMELECT_EXPECTS(params.u >= 0.0);
  }

  [[nodiscard]] double broadcast_u() const noexcept { return u; }
  [[nodiscard]] double estimate() const noexcept { return u; }
  [[nodiscard]] bool done() const noexcept { return elected; }

  void step(ChannelState state) noexcept {
    if (!elected && state == ChannelState::kSingle) elected = true;
  }
};

/// Twin of Lesk (paper Alg. 1): u walks -1 on Null (floored at 0),
/// +eps/8 on Collision; elect on Single.
struct LeskKernel {
  using Params = LeskParams;

  /// Collision increment, computed exactly as Lesk does (1.0 / a_ with
  /// a_ = 8.0 / eps); the value is the same double every observe, so
  /// precomputing it preserves bit-identity.
  double inc;
  double u;
  bool elected;

  explicit LeskKernel(const Params& params)
      : inc(1.0 / (8.0 / params.eps)), u(params.initial_u), elected(false) {
    JAMELECT_EXPECTS(params.eps > 0.0 && params.eps <= 1.0);
    JAMELECT_EXPECTS(params.initial_u >= 0.0);
  }

  [[nodiscard]] double broadcast_u() const noexcept { return u; }
  [[nodiscard]] double estimate() const noexcept { return u; }
  [[nodiscard]] bool done() const noexcept { return elected; }

  void step(ChannelState state) noexcept {
    if (elected) return;
    // Select-form of the Null/Collision/Single switch: the channel
    // state is data-dependent, so the branchy form mispredicts in the
    // batch engines' hot loop. Each arm computes the same double the
    // switch would, and the untouched arms select the old u, so the
    // stored bits are identical.
    const double down = std::max(u - 1.0, 0.0);
    const double up = u + inc;
    u = state == ChannelState::kNull ? down
        : state == ChannelState::kCollision ? up
                                            : u;
    elected = state == ChannelState::kSingle;
  }
};

/// Twin of Estimation (paper Function 2): round r transmits w.p.
/// 2^-2^r for 2^r slots; completes when a round sees >= L Nulls.
struct EstimationKernel {
  std::int64_t L;
  std::int64_t round = 0;
  std::int64_t slots_left_in_round = 0;
  std::int64_t nulls_in_round = 0;
  bool completed = false;
  bool elected = false;

  explicit EstimationKernel(std::int64_t L_) : L(L_) {
    JAMELECT_EXPECTS(L >= 1);
    begin_round(1);
  }

  void begin_round(std::int64_t r) {
    JAMELECT_EXPECTS(r >= 1 && r < 62);
    round = r;
    slots_left_in_round = std::int64_t{1} << r;
    nulls_in_round = 0;
  }

  /// p = 2^-2^round; Estimation stores this as exp2(-ldexp(1, round)),
  /// which equals transmit_probability(ldexp(1, round)) bit for bit
  /// (the min(1, ·) clamp never binds for round >= 1). 2^round is built
  /// from the integer power (exact for round < 62, which begin_round
  /// enforces): the same double as ldexp(1, round), without a libm call
  /// in the batch lanes' per-slot kernel refresh.
  [[nodiscard]] double broadcast_u() const noexcept {
    return static_cast<double>(std::uint64_t{1} << round);
  }
  [[nodiscard]] bool done() const noexcept { return elected; }

  void step(ChannelState state) {
    if (completed || elected) return;
    if (state == ChannelState::kSingle) {
      elected = true;
      return;
    }
    if (state == ChannelState::kNull) ++nulls_in_round;
    --slots_left_in_round;
    if (slots_left_in_round == 0) {
      if (nulls_in_round >= L) {
        completed = true;
      } else {
        begin_round(round + 1);
      }
    }
  }
};

/// Twin of Lesu (paper Alg. 2): Estimation, then the doubly-indexed
/// (i, j) LESK schedule with eps_j = 2^(-j/3) and budget 3*2^i*t0/j.
struct LesuKernel {
  using Params = LesuParams;

  LesuParams params;
  EstimationKernel est;
  bool lesk_phase;  ///< Lesu::Phase::kLesk
  bool elected;
  std::int64_t i;
  std::int64_t j;
  double t0;
  double current_eps;
  std::int64_t slots_left;
  LeskKernel lesk;  ///< valid once lesk_phase

  explicit LesuKernel(const Params& p)
      : params(p),
        est(p.estimation_L),
        lesk_phase(false),
        elected(false),
        i(0),
        j(0),
        t0(0.0),
        current_eps(0.0),
        slots_left(0),
        lesk(LeskParams{1.0, 0.0}) {  // placeholder until the phase flips
    JAMELECT_EXPECTS(p.c > 0.0);
    JAMELECT_EXPECTS(p.max_i >= 1 && p.max_i < 62);
  }

  [[nodiscard]] double broadcast_u() const noexcept {
    return lesk_phase ? lesk.broadcast_u() : est.broadcast_u();
  }
  /// Mirrors Lesu::estimate(): inner LESK's u in the LESK phase, NaN
  /// during Estimation.
  [[nodiscard]] double estimate() const noexcept {
    return lesk_phase ? lesk.u : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] bool done() const noexcept { return elected; }

  void start_subexecution(std::int64_t i_, std::int64_t j_) {
    JAMELECT_EXPECTS(i_ >= 1 && j_ >= 1 && j_ <= i_);
    i = i_;
    j = j_;
    current_eps = std::exp2(-static_cast<double>(j_) / 3.0);
    const double budget =
        3.0 * std::ldexp(t0, static_cast<int>(i_)) / static_cast<double>(j_);
    slots_left = ceil_to_slots(budget);
    JAMELECT_ENSURES(slots_left >= 1);
    lesk = LeskKernel(LeskParams{current_eps, 0.0});
  }

  void step(ChannelState state) {
    if (elected) return;
    if (!lesk_phase) {
      est.step(state);
      if (est.elected) {
        elected = true;
        return;
      }
      if (est.completed) {
        t0 = params.c *
             std::ldexp(1.0, static_cast<int>(est.round) + 1);
        lesk_phase = true;
        start_subexecution(1, 1);
      }
      return;
    }

    lesk.step(state);
    if (lesk.elected) {
      elected = true;
      return;
    }
    if (--slots_left == 0) {
      if (j < i) {
        start_subexecution(i, j + 1);
      } else {
        const std::int64_t next_i = std::min(i + 1, params.max_i);
        start_subexecution(next_i, 1);
      }
    }
  }
};

// The batch engines copy kernels by memcpy semantics (lane swap-
// remove, and the hybrid lanes' phase-partition swaps); these hold
// that contract at compile time.
static_assert(std::is_trivially_copyable_v<UniformKernel>);
static_assert(std::is_trivially_copyable_v<LeskKernel>);
static_assert(std::is_trivially_copyable_v<EstimationKernel>);
static_assert(std::is_trivially_copyable_v<LesuKernel>);

}  // namespace jamelect::kernels
