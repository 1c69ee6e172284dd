// WideXoshiro must reproduce the scalar Rng streams bit for bit on
// every backend — the wide batch engines' bit-identity contract
// bottoms out here. Each test that depends on the backend runs under
// both (AVX2 when the machine supports it, the portable 4-wide path
// always) via the set_wide_isa_for_testing hook.
#include "support/wide_rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/rng.hpp"

namespace jamelect {
namespace {

[[nodiscard]] std::uint64_t bits(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

/// Backends available on this machine: scalar4 always, avx2 if usable.
[[nodiscard]] std::vector<WideIsa> available_isas() {
  std::vector<WideIsa> isas{WideIsa::kScalar4};
  if (wide_avx2_supported()) isas.push_back(WideIsa::kAvx2);
  return isas;
}

/// Pins the backend for the duration of a scope.
class IsaGuard {
 public:
  explicit IsaGuard(WideIsa isa) { set_wide_isa_for_testing(isa); }
  ~IsaGuard() { reset_wide_isa_for_testing(); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
};

TEST(WideRng, ScalarLaneOpsMatchRngExactly) {
  // next/uniform/below per lane against the scalar engine, including a
  // non-power-of-two below() bound (rejection path).
  WideXoshiro wide(3);
  std::vector<Rng> scalars;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::uint64_t seed = 0x9e37'79b9'0000'0000ULL + k;
    wide.seed_lane(k, seed);
    scalars.emplace_back(seed);
  }
  for (int step = 0; step < 200; ++step) {
    for (std::size_t k = 0; k < 3; ++k) {
      ASSERT_EQ(wide.next_lane(k), scalars[k].next_u64());
      ASSERT_EQ(bits(wide.uniform_lane(k)), bits(scalars[k].uniform()));
      ASSERT_EQ(wide.below_lane(k, 1), scalars[k].below(1));
      ASSERT_EQ(wide.below_lane(k, 64), scalars[k].below(64));
      ASSERT_EQ(wide.below_lane(k, 37), scalars[k].below(37));
    }
  }
}

TEST(WideRng, UniformGroupsMatchesScalarStreamsOnEveryBackend) {
  for (const WideIsa isa : available_isas()) {
    IsaGuard guard(isa);
    // 7 lanes: one full group plus a partial (pad lane advances too but
    // its output is ignored).
    WideXoshiro wide(7);
    std::vector<Rng> scalars;
    for (std::size_t k = 0; k < 7; ++k) {
      const std::uint64_t seed = 1000 + 17 * k;
      wide.seed_lane(k, seed);
      scalars.emplace_back(seed);
    }
    std::vector<double> out(wide.padded_lanes());
    for (int step = 0; step < 500; ++step) {
      wide.uniform_groups(2, out.data());
      for (std::size_t k = 0; k < 7; ++k) {
        ASSERT_EQ(bits(out[k]), bits(scalars[k].uniform()))
            << wide_isa_name(isa) << " lane " << k << " step " << step;
      }
    }
  }
}

TEST(WideRng, UniformMaskedAdvancesOnlyMaskedLanes) {
  for (const WideIsa isa : available_isas()) {
    IsaGuard guard(isa);
    WideXoshiro wide(8);
    std::vector<Rng> scalars;
    for (std::size_t k = 0; k < 8; ++k) {
      wide.seed_lane(k, 77 + k);
      scalars.emplace_back(77 + k);
    }
    std::vector<double> out(8, -1.0);
    Rng pattern(3);
    for (int step = 0; step < 300; ++step) {
      // Random mask each step: exercises full groups, partial groups,
      // and all-zero groups.
      std::vector<std::uint8_t> mask(8);
      for (auto& m : mask) m = pattern.bernoulli(0.5) ? 1 : 0;
      wide.uniform_masked(0, 2, mask.data(), out.data());
      for (std::size_t k = 0; k < 8; ++k) {
        if (mask[k] != 0) {
          ASSERT_EQ(bits(out[k]), bits(scalars[k].uniform()))
              << wide_isa_name(isa) << " lane " << k << " step " << step;
        }
      }
    }
    // Unmasked lanes never moved: their next draw still matches.
    for (std::size_t k = 0; k < 8; ++k) {
      ASSERT_EQ(wide.next_lane(k), scalars[k].next_u64());
    }
  }
}

TEST(WideRng, UniformMaskedFromAFirstGroupLeavesEarlierGroupsUntouched) {
  for (const WideIsa isa : available_isas()) {
    IsaGuard guard(isa);
    WideXoshiro wide(16);
    std::vector<Rng> scalars;
    for (std::size_t k = 0; k < 16; ++k) {
      wide.seed_lane(k, 501 + k);
      scalars.emplace_back(501 + k);
    }
    Rng pattern(9);
    for (int step = 0; step < 300; ++step) {
      // Groups [1, 3): lanes 4..11. Lanes 0..3 carry set mask bits and a
      // sentinel out value that the call must neither read nor write;
      // lanes 12..15 lie past the range.
      std::vector<std::uint8_t> mask(16);
      for (auto& m : mask) m = pattern.bernoulli(0.5) ? 1 : 0;
      for (std::size_t k = 0; k < 4; ++k) mask[k] = 1;
      std::vector<double> out(16, -1.0);
      wide.uniform_masked(1, 3, mask.data(), out.data());
      for (std::size_t k = 0; k < 16; ++k) {
        if (k >= 4 && k < 12 && mask[k] != 0) {
          ASSERT_EQ(bits(out[k]), bits(scalars[k].uniform()))
              << wide_isa_name(isa) << " lane " << k << " step " << step;
        } else {
          ASSERT_EQ(out[k], -1.0)
              << wide_isa_name(isa) << " lane " << k << " step " << step;
        }
      }
    }
    // Lanes outside the groups, and unmasked lanes inside, never moved.
    for (std::size_t k = 0; k < 16; ++k) {
      ASSERT_EQ(wide.next_lane(k), scalars[k].next_u64())
          << wide_isa_name(isa) << " lane " << k;
    }
  }
}

TEST(WideRng, MoveLaneCopiesTheStream) {
  WideXoshiro wide(5);
  for (std::size_t k = 0; k < 5; ++k) wide.seed_lane(k, 42 + k);
  (void)wide.next_lane(4);  // advance src so dst must copy mid-stream
  Rng twin(46);
  (void)twin.next_u64();
  wide.move_lane(1, 4);
  for (int step = 0; step < 50; ++step) {
    ASSERT_EQ(wide.next_lane(1), twin.next_u64());
  }
}

/// Probabilities at the edges of the raw-word threshold: powers of two
/// (exact multiples of 2^-53 and below), the largest double under 1,
/// the smallest normal and subnormal doubles, and generic values.
[[nodiscard]] std::vector<double> edge_probabilities() {
  std::vector<double> ps;
  for (const int k : {1, 2, 3, 11, 24, 52, 53, 54, 60}) {
    ps.push_back(std::ldexp(1.0, -k));
  }
  ps.push_back(1.0 - 0x1.0p-53);
  ps.push_back(std::numeric_limits<double>::min());
  ps.push_back(std::numeric_limits<double>::denorm_min());
  ps.push_back(1.0 / 24.0);
  ps.push_back(0.3);
  ps.push_back(std::nextafter(0.5, 0.0));
  return ps;
}

TEST(WideRng, BernoulliThresholdMatchesUniformCompare) {
  // raw < bernoulli_threshold(p) must agree with uniform() < p on every
  // raw word: probe the words around each threshold and across one
  // (raw >> 11) step, the extremes, and random words.
  Rng words(0x7e57);
  for (const double p : edge_probabilities()) {
    const std::uint64_t t = bernoulli_threshold(p);
    std::vector<std::uint64_t> raws = {0,        1,        t - 1,
                                       t,        t + 1,    t - 2048,
                                       t + 2047, t + 2048, ~0ULL,
                                       ~0ULL - 2047};
    for (int i = 0; i < 20000; ++i) raws.push_back(words.next_u64());
    for (const std::uint64_t raw : raws) {
      ASSERT_EQ(raw < t, wide_detail::to_uniform(raw) < p)
          << "p " << p << " raw " << raw;
    }
  }
}

TEST(WideRng, CountBelowMatchesPerLaneBernoulliOnEveryBackend) {
  const std::vector<double> ps = edge_probabilities();
  for (const WideIsa isa : available_isas()) {
    IsaGuard guard(isa);
    // Counts run on group 1; group 0 must never move.
    WideXoshiro wide(8);
    std::vector<Rng> twins;
    for (std::size_t k = 0; k < 8; ++k) {
      wide.seed_lane(k, 0x5eed + 31 * k);
      twins.emplace_back(0x5eed + 31 * k);
    }
    std::array<std::uint8_t, kWideLanes> mask{1, 1, 1, 1};
    std::array<std::uint64_t, kWideLanes> thresholds{};
    std::array<std::uint64_t, kWideLanes> counts{};
    std::array<double, kWideLanes> p{};
    for (int slot = 0; slot < 300; ++slot) {
      if (slot == 120) mask[2] = 0;  // lane 6 goes dead mid-group
      // Single draws most slots (draw for draw), longer runs between;
      // slot 7 draws nothing.
      const std::uint64_t steps =
          slot == 7 ? 0 : (slot % 3 == 0 ? 1 + slot % 41 : 1);
      for (std::size_t k = 0; k < kWideLanes; ++k) {
        p[k] = ps[(static_cast<std::size_t>(slot) + 5 * k) % ps.size()];
        thresholds[k] = bernoulli_threshold(p[k]);
      }
      wide.count_below(1, steps, mask.data(), thresholds.data(),
                       counts.data());
      for (std::size_t k = 0; k < kWideLanes; ++k) {
        std::uint64_t expected = 0;
        if (mask[k] != 0) {
          for (std::uint64_t i = 0; i < steps; ++i) {
            expected += twins[4 + k].bernoulli(p[k]) ? 1 : 0;
          }
        }
        ASSERT_EQ(counts[k], expected)
            << wide_isa_name(isa) << " lane " << 4 + k << " slot " << slot;
      }
    }
    // Every stream sits where its twin's does: the dead lane stopped at
    // slot 120 and group 0 never moved.
    for (std::size_t k = 0; k < 8; ++k) {
      ASSERT_EQ(wide.next_lane(k), twins[k].next_u64())
          << wide_isa_name(isa) << " lane " << k;
    }
  }
}

TEST(WideRng, PadsToGroupMultiple) {
  EXPECT_EQ(WideXoshiro(1).padded_lanes(), kWideLanes);
  EXPECT_EQ(WideXoshiro(4).padded_lanes(), 4u);
  EXPECT_EQ(WideXoshiro(5).padded_lanes(), 8u);
  EXPECT_EQ(WideXoshiro(5).lanes(), 5u);
}

TEST(WideRng, IsaNamesAndOverrides) {
  EXPECT_STREQ(wide_isa_name(WideIsa::kScalar4), "scalar4");
  EXPECT_STREQ(wide_isa_name(WideIsa::kAvx2), "avx2");
  {
    IsaGuard guard(WideIsa::kScalar4);
    EXPECT_EQ(active_wide_isa(), WideIsa::kScalar4);
  }
  if (wide_avx2_supported()) {
    IsaGuard guard(WideIsa::kAvx2);
    EXPECT_EQ(active_wide_isa(), WideIsa::kAvx2);
  }
}

}  // namespace
}  // namespace jamelect
