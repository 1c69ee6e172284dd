// Binomial(n, p) sampling for the cohort/class-compressed simulation
// engines.
//
// Every regime is exact (to double-precision pmf arithmetic) — there is
// no normal-approximation fallback anywhere:
//   * n <= 128            — direct Bernoulli loop;
//   * mean <= 30          — CDF inversion from k = 0 using the
//                           log-space pmf recurrence;
//   * otherwise           — BTPE (Kachitvichyanukul & Schmeiser 1988),
//                           a triangle/parallelogram/exponential-tail
//                           rejection sampler whose acceptance test
//                           evaluates the exact pmf ratio, so the
//                           output law is Binomial(n, p) itself. O(1)
//                           expected draws per sample at any mean.
// p > 1/2 is reflected through k -> n - k before dispatch.
//
// The sampler is a template over the generator: it needs only
// `double uniform()`, so Rng drives it in the engines and a scripted
// uniform sequence can drive it in tests.
#pragma once

#include <cmath>
#include <cstdint>

#include "support/expects.hpp"
#include "support/rng.hpp"

namespace jamelect {

/// Per-thread tally of which sampling regime binomial_sample() has
/// dispatched to on this thread. Monotone over the thread's lifetime;
/// layers with telemetry access (the sim engines) emit watermark deltas
/// into the metrics registry as binom.regime.{loop,inversion,btpe} —
/// support itself stays free of the obs dependency.
struct BinomialRegimeCounts {
  std::uint64_t loop = 0;       ///< n <= 128 Bernoulli-loop dispatches
  std::uint64_t inversion = 0;  ///< mean <= 30 CDF-inversion dispatches
  std::uint64_t btpe = 0;       ///< BTPE rejection dispatches
};

namespace binomial_detail {

inline thread_local BinomialRegimeCounts t_regime_counts;

/// n Bernoulli(p) coins; p lies strictly inside (0, 1) here, so each
/// coin is exactly one uniform() < p compare (Rng::bernoulli's body).
template <class RngT>
[[nodiscard]] std::uint64_t small_n(std::uint64_t n, double p, RngT& rng) {
  std::uint64_t k = 0;
  for (std::uint64_t i = 0; i < n; ++i) k += rng.uniform() < p ? 1 : 0;
  return k;
}

/// CDF inversion: walk the pmf from k = 0 upward using the recurrence
/// P(k+1) = P(k) * (n-k)/(k+1) * p/(1-p). Intended for np <= ~30 where
/// the walk terminates quickly; P(0) = (1-p)^n is computed in log space
/// to avoid underflow at large n.
template <class RngT>
[[nodiscard]] std::uint64_t inversion(std::uint64_t n, double p, RngT& rng) {
  const double nd = static_cast<double>(n);
  const double log_p0 = nd * std::log1p(-p);
  double pmf = std::exp(log_p0);
  const double odds = p / (1.0 - p);
  double cdf = pmf;
  const double u = rng.uniform();
  std::uint64_t k = 0;
  while (u > cdf && k < n) {
    pmf *= (nd - static_cast<double>(k)) / (static_cast<double>(k) + 1.0) * odds;
    cdf += pmf;
    ++k;
    // pmf can underflow to 0 in the far tail before cdf reaches u due
    // to rounding; bail out at the (astronomically unlikely) boundary.
    if (pmf <= 0.0) break;
  }
  return k;
}

/// Stirling-series tail of log(k!) beyond the leading terms, evaluated
/// at x (with x2 = x*x): the BTPE paper's nested polynomial form.
[[nodiscard]] inline double stirling_tail(double x, double x2) {
  return (13860.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) /
         x / 166320.0;
}

/// BTPE — Binomial Triangle-Parallelogram-Exponential rejection
/// (Kachitvichyanukul & Schmeiser, CACM 1988). The proposal density is
/// a triangle around the mode flanked by a parallelogram and two
/// exponential tails; acceptance compares against the EXACT pmf ratio
/// f(y)/f(mode), either via the multiplicative recurrence (near the
/// mode) or via a squeeze plus a Stirling-corrected log test (far
/// tails). Requires p <= 1/2 and n*p >= ~30 so the mode region is wide
/// enough for the triangle geometry.
template <class RngT>
[[nodiscard]] std::uint64_t btpe(std::uint64_t n, double p, RngT& rng) {
  const double nd = static_cast<double>(n);
  const double r = p;
  const double q = 1.0 - r;
  const double nrq = nd * r * q;
  const double fm = nd * r + r;
  const double m = std::floor(fm);  // the mode of the pmf
  // Geometry of the four proposal regions.
  const double p1 = std::floor(2.195 * std::sqrt(nrq) - 4.6 * q) + 0.5;
  const double xm = m + 0.5;
  const double xl = xm - p1;
  const double xr = xm + p1;
  const double c = 0.134 + 20.5 / (15.3 + m);
  double slope = (fm - xl) / (fm - xl * r);
  const double laml = slope * (1.0 + 0.5 * slope);
  slope = (xr - fm) / (xr * q);
  const double lamr = slope * (1.0 + 0.5 * slope);
  const double p2 = p1 * (1.0 + 2.0 * c);
  const double p3 = p2 + c / laml;
  const double p4 = p3 + c / lamr;

  for (;;) {
    const double u = rng.uniform() * p4;
    double v = rng.uniform();
    double y;
    if (u <= p1) {
      // Triangular core: accept immediately.
      y = std::floor(xm - p1 * v + u);
      return static_cast<std::uint64_t>(y);
    }
    if (u <= p2) {
      // Parallelogram above the triangle.
      const double x = xl + (u - p1) / c;
      v = v * c + 1.0 - std::abs(xm - x) / p1;
      if (v > 1.0 || v <= 0.0) continue;
      y = std::floor(x);
    } else if (u <= p3) {
      // Left exponential tail.
      y = std::floor(xl + std::log(v) / laml);
      if (y < 0.0) continue;
      v *= (u - p2) * laml;
    } else {
      // Right exponential tail.
      y = std::floor(xr - std::log(v) / lamr);
      if (y > nd) continue;
      v *= (u - p3) * lamr;
    }

    // Accept y iff v <= f(y)/f(m).
    const double k = std::abs(y - m);
    if (k <= 20.0 || k >= nrq / 2.0 - 1.0) {
      // Near the mode (or in the extreme tail where the recurrence is
      // short): evaluate the ratio exactly by the recurrence.
      const double s = r / q;
      const double aa = s * (nd + 1.0);
      double f = 1.0;
      if (m < y) {
        for (double i = m + 1.0; i <= y; i += 1.0) f *= (aa / i - s);
      } else if (m > y) {
        for (double i = y + 1.0; i <= m; i += 1.0) f /= (aa / i - s);
      }
      if (v <= f) return static_cast<std::uint64_t>(y);
      continue;
    }
    // Squeeze: cheap bounds on log(f(y)/f(m)) before the full test.
    const double rho =
        (k / nrq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / nrq + 0.5);
    const double t = -k * k / (2.0 * nrq);
    const double alv = std::log(v);
    if (alv < t - rho) return static_cast<std::uint64_t>(y);
    if (alv > t + rho) continue;
    // Final exact test: log(f(y)/f(m)) via Stirling-corrected factorials.
    const double x1 = y + 1.0;
    const double f1 = m + 1.0;
    const double z = nd + 1.0 - m;
    const double w = nd - y + 1.0;
    const double target =
        xm * std::log(f1 / x1) + (nd - m + 0.5) * std::log(z / w) +
        (y - m) * std::log(w * r / (x1 * q)) + stirling_tail(f1, f1 * f1) +
        stirling_tail(z, z * z) + stirling_tail(x1, x1 * x1) +
        stirling_tail(w, w * w);
    if (alv <= target) return static_cast<std::uint64_t>(y);
  }
}

}  // namespace binomial_detail

/// Draws k ~ Binomial(n, p). Requires p in [0, 1]. RngT needs only
/// `double uniform()`.
template <class RngT>
[[nodiscard]] std::uint64_t binomial_sample(std::uint64_t n, double p,
                                            RngT& rng) {
  JAMELECT_EXPECTS(p >= 0.0 && p <= 1.0);
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - binomial_sample(n, 1.0 - p, rng);
  BinomialRegimeCounts& counts = binomial_detail::t_regime_counts;
  if (n <= 128) {
    ++counts.loop;
    return binomial_detail::small_n(n, p, rng);
  }
  const double mean = static_cast<double>(n) * p;
  if (mean <= 30.0) {
    ++counts.inversion;
    return binomial_detail::inversion(n, p, rng);
  }
  ++counts.btpe;
  return binomial_detail::btpe(n, p, rng);
}

/// This thread's running regime tally (reference stays valid for the
/// thread's lifetime). A reflected draw (p > 1/2) counts once, under
/// the regime the reflected probability dispatches to.
[[nodiscard]] inline const BinomialRegimeCounts&
binomial_regime_counts() noexcept {
  return binomial_detail::t_regime_counts;
}

}  // namespace jamelect
