// WideXoshiro — W parallel xoshiro256** streams in structure-of-arrays
// layout, advanced one SIMD group at a time.
//
// The batch engine (sim/batch.cpp) keeps one Rng per lane; its inner
// loop is therefore W independent scalar engine steps per slot. This
// class stores the same 256-bit states as four parallel planes of
// W x u64 so a single vector rotl/xor/shift sequence advances every
// lane at once. Lane k of a WideXoshiro seeded with seed_lane(k, s)
// produces the EXACT output stream of Xoshiro256StarStar(s) — same
// SplitMix64 seed expansion, same state transition, and uniform draws
// use the exact `(x >> 11) * 2^-53` conversion of Rng::uniform — so the
// wide engines inherit the batch engine's bit-identity contract
// unchanged (tests/wide_rng_test.cpp locks this down per backend).
//
// Backends: one AVX2 path (256-bit vectors, four u64 lanes) and one
// portable 4-wide scalar-unrolled path. The group width is 4 for BOTH,
// so grouping, padding, and results never depend on the dispatch
// decision. Selection is per process: active_wide_isa() resolves once
// from compile-time support, cpuid, and the JAMELECT_FORCE_SCALAR
// environment override.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "support/expects.hpp"
#include "support/rng.hpp"
#include "support/wide_rng_step.hpp"

namespace jamelect {

/// Lanes advanced per SIMD group. Fixed at 4 for every backend so that
/// forcing the scalar path changes throughput, never results.
inline constexpr std::size_t kWideLanes = 4;

enum class WideIsa : std::uint8_t {
  kScalar4 = 0,  ///< portable 4-wide scalar-unrolled fallback
  kAvx2 = 1,     ///< 256-bit AVX2 vectors
};

/// The backend the wide engines use in this process: kAvx2 when the
/// binary was built with AVX2 support, the CPU reports the feature, and
/// JAMELECT_FORCE_SCALAR is unset (or "0") in the environment;
/// kScalar4 otherwise. Resolved on first call, then cached.
[[nodiscard]] WideIsa active_wide_isa() noexcept;

/// True iff the AVX2 backend is usable in this binary on this CPU
/// (ignores the JAMELECT_FORCE_SCALAR override).
[[nodiscard]] bool wide_avx2_supported() noexcept;

/// Telemetry name of a backend: "avx2" / "scalar4".
[[nodiscard]] const char* wide_isa_name(WideIsa isa) noexcept;

/// Test hook: pin active_wide_isa() to `isa` for the current process.
/// Requires wide_avx2_supported() when pinning kAvx2. Not safe against
/// concurrently running wide engines.
void set_wide_isa_for_testing(WideIsa isa);

/// Test hook: drop the pin/cache; the next active_wide_isa() call
/// re-resolves from the environment and cpuid.
void reset_wide_isa_for_testing() noexcept;

/// Raw-word threshold of a Bernoulli(p) draw, for p in (0, 1):
/// Rng::bernoulli(p) fires iff the raw xoshiro word is below it.
/// uniform() < p means (raw >> 11) < p * 2^53; for the integer
/// raw >> 11 that is (raw >> 11) < ceil(p * 2^53), i.e.
/// raw < ceil(p * 2^53) << 11. Both steps are exact: scaling by 2^53
/// and ceil lose nothing, and p <= 1 - 2^-53 keeps the shift below
/// 2^64. (p <= 0 and p >= 1 draw nothing in Rng::bernoulli.)
[[nodiscard]] inline std::uint64_t bernoulli_threshold(double p) {
  JAMELECT_EXPECTS(p > 0.0 && p < 1.0);
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53))) << 11;
}

class WideXoshiro {
 public:
  /// `lanes` independent streams (>= 1). Internally padded up to a
  /// multiple of kWideLanes; the pad lanes hold valid (all-zero-seeded)
  /// states that group operations advance and callers ignore.
  explicit WideXoshiro(std::size_t lanes)
      : lanes_(lanes),
        padded_((lanes + kWideLanes - 1) / kWideLanes * kWideLanes),
        state_(4 * padded_, 0) {
    JAMELECT_EXPECTS(lanes >= 1);
    for (std::size_t k = 0; k < padded_; ++k) seed_lane(k, 0);
  }

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }
  [[nodiscard]] std::size_t padded_lanes() const noexcept { return padded_; }

  /// State plane i (i in [0, 4)): padded_lanes() consecutive u64 words,
  /// word k belonging to lane k. Exposed so the fused slot primitives
  /// (sim/batch_wide.hpp) can advance states in their own loops.
  [[nodiscard]] std::uint64_t* plane(std::size_t i) noexcept {
    return state_.data() + i * padded_;
  }
  [[nodiscard]] const std::uint64_t* plane(std::size_t i) const noexcept {
    return state_.data() + i * padded_;
  }

  /// (Re)seeds one lane exactly as Xoshiro256StarStar(seed) does.
  void seed_lane(std::size_t lane, std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (std::size_t p = 0; p < 4; ++p) plane(p)[lane] = sm.next();
  }

  /// One scalar step of `lane`; bit-identical to the lane's scalar twin.
  [[nodiscard]] std::uint64_t next_lane(std::size_t lane) noexcept {
    return wide_detail::step1(plane(0)[lane], plane(1)[lane], plane(2)[lane],
                              plane(3)[lane]);
  }

  /// Uniform double in [0, 1); bit-identical to Rng::uniform.
  [[nodiscard]] double uniform_lane(std::size_t lane) noexcept {
    return wide_detail::to_uniform(next_lane(lane));
  }

  /// Uniform integer in [0, bound); the exact mask/rejection algorithm
  /// of Rng::below, so leader draws match the scalar path bit for bit.
  [[nodiscard]] std::uint64_t below_lane(std::size_t lane,
                                         std::uint64_t bound) {
    JAMELECT_EXPECTS(bound > 0);
    if ((bound & (bound - 1)) == 0) return next_lane(lane) & (bound - 1);
    const std::uint64_t limit =
        std::numeric_limits<std::uint64_t>::max() -
        std::numeric_limits<std::uint64_t>::max() % bound;
    for (;;) {
      const std::uint64_t r = next_lane(lane);
      if (r < limit) return r % bound;
    }
  }

  /// Copies lane `src`'s stream state onto lane `dst` (swap-remove
  /// compaction). `src`'s own state is left untouched.
  void move_lane(std::size_t dst, std::size_t src) noexcept {
    for (std::size_t p = 0; p < 4; ++p) plane(p)[dst] = plane(p)[src];
  }

  /// Exchanges the stream states of lanes `a` and `b` (the hybrid
  /// lanes' phase-partition moves).
  void swap_lanes(std::size_t a, std::size_t b) noexcept {
    for (std::size_t p = 0; p < 4; ++p) std::swap(plane(p)[a], plane(p)[b]);
  }

  /// Advances lanes [0, groups * kWideLanes) one step each and writes
  /// lane k's uniform draw to out[k]. Requires groups * kWideLanes <=
  /// padded_lanes(). Backend per active_wide_isa() at construction.
  void uniform_groups(std::size_t groups, double* out) noexcept;

  /// Advances ONLY the lanes with mask[k] != 0 among the lanes of
  /// groups [first_group, end_group) — lanes [first_group * kWideLanes,
  /// end_group * kWideLanes) — writing their uniforms to out[k]; mask
  /// and out are indexed by absolute lane. Unmasked lanes keep their
  /// stream position and their out slot, and lanes outside the groups
  /// are never read or touched, whatever their mask says. Requires
  /// first_group <= end_group and end_group * kWideLanes <=
  /// padded_lanes().
  void uniform_masked(std::size_t first_group, std::size_t end_group,
                      const std::uint8_t* mask, double* out) noexcept;

  /// Two consecutive draws per lane in one state pass: lane k's next
  /// uniform goes to out_u[k], the one after to out_v[k]. Bit-identical
  /// to two uniform_groups calls (each lane sees its own stream in
  /// order); fused so the state planes are loaded and stored once.
  void uniform_groups2(std::size_t groups, double* out_u,
                       double* out_v) noexcept;

  /// Fused Bernoulli count over one group: each lane k of group
  /// `group` (lanes [group * kWideLanes, +kWideLanes)) with mask[k] != 0
  /// draws `steps` raw words and counts[k] gets how many fell strictly
  /// below thresholds[k] (see bernoulli_threshold). Unmasked lanes keep
  /// their stream position and get counts[k] = 0. Each array holds
  /// kWideLanes entries; both backends give identical counts.
  void count_below(std::size_t group, std::uint64_t steps,
                   const std::uint8_t* mask, const std::uint64_t* thresholds,
                   std::uint64_t* counts) noexcept;

 private:
  std::size_t lanes_;
  std::size_t padded_;
  WideIsa isa_ = active_wide_isa();
  std::vector<std::uint64_t> state_;
};

}  // namespace jamelect
