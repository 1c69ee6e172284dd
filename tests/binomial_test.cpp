// binomial_sample regime boundaries (support/binomial.hpp dispatch):
// n = 128 is the last Bernoulli-loop size and n = 129 the first
// inversion/BTPE size; mean = 30 is the inversion <-> BTPE crossover;
// p > 1/2 reflects through k -> n - k. Every regime must agree with
// the Binomial(n, p) law in mean and variance, and the edges must be
// exact.
#include "support/binomial.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "support/expects.hpp"
#include "support/rng.hpp"

namespace jamelect {
namespace {

struct Moments {
  double mean;
  double var;
};

[[nodiscard]] Moments sample_moments(std::uint64_t n, double p,
                                     std::uint64_t seed, int draws) {
  Rng rng(seed);
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < draws; ++i) {
    const auto k = static_cast<double>(binomial_sample(n, p, rng));
    sum += k;
    sumsq += k * k;
  }
  const double mean = sum / draws;
  return {mean, sumsq / draws - mean * mean};
}

/// Mean within 6 standard errors, variance within 20% — tight enough
/// to catch a regime implementing the wrong law, loose enough to never
/// flake at 40k draws.
void expect_binomial_law(std::uint64_t n, double p, std::uint64_t seed) {
  constexpr int kDraws = 40000;
  const Moments m = sample_moments(n, p, seed, kDraws);
  const double nd = static_cast<double>(n);
  const double true_mean = nd * p;
  const double true_var = nd * p * (1.0 - p);
  const double se = std::sqrt(true_var / kDraws);
  EXPECT_NEAR(m.mean, true_mean, 6.0 * se) << "n=" << n << " p=" << p;
  EXPECT_NEAR(m.var, true_var, 0.2 * true_var) << "n=" << n << " p=" << p;
}

TEST(BinomialSample, BernoulliLoopBoundaryN128vsN129) {
  // n = 128 runs the Bernoulli loop; n = 129 with mean < 30 dispatches
  // to CDF inversion. Both must produce the same law.
  expect_binomial_law(128, 0.1, 101);  // loop, mean 12.8
  expect_binomial_law(129, 0.1, 102);  // inversion, mean 12.9
  expect_binomial_law(128, 0.4, 103);  // loop, mean 51.2
  expect_binomial_law(129, 0.4, 104);  // BTPE, mean 51.6
}

TEST(BinomialSample, InversionBtpeCrossoverAtMean30) {
  // n = 1000: p = 0.0299 -> mean 29.9 (inversion); p = 0.0301 -> mean
  // 30.1 (BTPE). The law must be continuous across the dispatch line.
  expect_binomial_law(1000, 0.0299, 201);
  expect_binomial_law(1000, 0.0301, 202);
  // Far into each regime, for good measure.
  expect_binomial_law(100000, 0.0001, 203);  // inversion, mean 10
  expect_binomial_law(100000, 0.01, 204);    // BTPE, mean 1000
}

TEST(BinomialSample, ReflectionForPAboveHalfIsExact) {
  // p > 1/2 recurses as n - sample(n, 1 - p) with the same rng draws,
  // so twin generators must agree deterministically, not just in law.
  // (p = 0.75 so that 1 - p is exact in binary; with e.g. p = 0.7 the
  // reflected probability is 1.0 - 0.7 != 0.3 by one ulp.)
  for (const std::uint64_t n : {50ULL, 129ULL, 5000ULL}) {
    Rng a(42), b(42);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t hi = binomial_sample(n, 0.75, a);
      const std::uint64_t lo = binomial_sample(n, 0.25, b);
      ASSERT_EQ(hi, n - lo);
    }
  }
  expect_binomial_law(129, 0.9, 301);
  expect_binomial_law(5000, 0.75, 302);
}

TEST(BinomialSample, EdgesAreExact) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(binomial_sample(0, 0.5, rng), 0u);
    EXPECT_EQ(binomial_sample(1000, 0.0, rng), 0u);
    EXPECT_EQ(binomial_sample(1000, 1.0, rng), 1000u);
    EXPECT_EQ(binomial_sample(1, 1.0, rng), 1u);
  }
}

TEST(BinomialSample, ResultNeverExceedsN) {
  Rng rng(3);
  for (const std::uint64_t n : {1ULL, 128ULL, 129ULL, 10000ULL}) {
    for (const double p : {0.01, 0.3, 0.5, 0.9, 0.999}) {
      for (int i = 0; i < 500; ++i) {
        ASSERT_LE(binomial_sample(n, p, rng), n);
      }
    }
  }
}

TEST(BinomialSample, DeterministicBySeed) {
  Rng a(77), b(77);
  for (const double p : {0.01, 0.3, 0.7}) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(binomial_sample(2000, p, a), binomial_sample(2000, p, b));
    }
  }
}

TEST(BinomialSample, RejectsOutOfRangeP) {
  Rng rng(5);
  EXPECT_THROW((void)binomial_sample(10, -0.1, rng), ContractViolation);
  EXPECT_THROW((void)binomial_sample(10, 1.1, rng), ContractViolation);
}

}  // namespace
}  // namespace jamelect
