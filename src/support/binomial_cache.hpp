// BinomialSamplerCache — memoized binomial_sample() plans keyed on
// (cohort size n, broadcast exponent u).
//
// The cohort engine draws Binomial(|cohort|, transmit_probability(u))
// once per cohort per slot. LESK/LESU walk u over a small lattice and
// cohort sizes repeat massively across trials, so a Monte-Carlo sweep
// evaluates only a handful of distinct (n, u) pairs — but the generic
// sampler (support/binomial.hpp) recomputes its full per-regime setup
// on every draw: the log1p + exp + pmf-recurrence walk in the CDF
// inversion regime, or the triangle/parallelogram geometry block in
// BTPE. This cache hoists that setup into a BinomialPlan built once
// per distinct pair:
//   * kLoop       — nothing to precompute; the plan just pins the
//                   regime and reflected probability;
//   * kInversion  — the CDF prefix table, so a draw is one uniform +
//                   one lower_bound instead of the walk;
//   * kBtpe       — the 15 setup constants, so a draw starts directly
//                   in the rejection loop.
//
// Lookup mirrors SlotProbCache: an open-addressing hash on the bit
// pattern of u mixed with n, plus an optional direct-mapped dense
// index over the declared broadcast-exponent lattice
// (set_lattice_step; LESK moves u on {-1, +eps/8} multiples). Every
// dense slot stores the exact (u bits, n) key and is verified before
// use — off-lattice values simply take the hash path. Never a wrong
// answer.
//
// Bit-identity: a plan draw consumes uniforms from the caller's
// generator in exactly the order binomial_sample(n, p, rng) would and
// applies the exact same floating-point expressions, so for the same
// uniform stream it returns the same k. The inversion table is the
// pmf walk's own prefix sums (same recurrence), up to where the sum
// saturates; lower_bound over it is the walk's exit condition
// verbatim, and a u above every entry runs the walk itself. The
// equivalence is pinned by BinomialPlanEquivalence in
// tests/cohort_batch_equivalence_test.cpp.
//
// Memory: plans are sized to their regime (only BTPE plans carry the
// BTPE constants), and bytes() reports what the cache holds so its
// owner can bound it; clear() drops every plan. The cache is
// unsynchronized; each batch worker thread owns one instance
// (thread_local beside the cohort lanes in sim/batch.cpp), which
// clears it between chunks once the thread's memos outgrow their byte
// budget.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/binomial.hpp"
#include "support/expects.hpp"

namespace jamelect {

/// Precomputed dispatch + setup state for Binomial(n, p): the regime
/// binomial_sample() would take, the reflected probability, and the
/// regime's reusable table/constants.
struct BinomialPlan {
  enum class Regime : std::uint8_t {
    kZero,       ///< n == 0 or p <= 0: k = 0, no draw
    kAll,        ///< p >= 1: k = n, no draw
    kLoop,       ///< n <= 128: n Bernoulli coins
    kInversion,  ///< mean <= 30: one uniform against the CDF table
    kBtpe        ///< BTPE rejection: two uniforms per attempt
  };

  /// binomial_detail::btpe's setup block — pure functions of (n, p_eff).
  struct BtpeSetup {
    double nd = 0.0, r = 0.0, q = 0.0, nrq = 0.0, m = 0.0, p1 = 0.0,
           xm = 0.0, xl = 0.0, xr = 0.0, c = 0.0, laml = 0.0, lamr = 0.0,
           p2 = 0.0, p3 = 0.0, p4 = 0.0;
    /// fprod[j] = aa / i - s for i = m - 20 + j (s = r/q,
    /// aa = s*(nd+1)): the factors of the exact test's f-product
    /// walk, whose squeeze window is |y - m| <= 20. Each entry is the
    /// identical division the walk would perform, hoisted to setup
    /// time; the far tail (|y - m| > 21) recomputes in place.
    double fprod[42] = {};
  };

  Regime regime = Regime::kZero;
  bool reflect = false;  ///< p > 1/2: drawn with p_eff, returned as n - k
  std::uint64_t n = 0;
  double p = 0.0;      ///< the requested probability
  double p_eff = 0.0;  ///< reflect ? 1.0 - p : p; drives the dispatch
  /// kInversion only: cdf[j] = P[K <= j] by the exact pmf recurrence,
  /// up to where the running sum first stops moving (or j = n). A draw
  /// whose uniform exceeds every entry runs the uncached walk instead.
  std::vector<double> cdf;
  /// kInversion only: guide table (Chen & Asau) over the cdf —
  /// guide[b] is the first index with cdf[idx] >= b / guide.size(),
  /// so a lookup for u starts its forward scan at guide[floor(u *
  /// guide.size())] and expects O(1) steps. Purely a search
  /// accelerator: the found index is the same lower_bound either way.
  std::vector<std::uint32_t> guide;
  double guide_scale = 0.0;  ///< guide.size() as double
  std::unique_ptr<const BtpeSetup> btpe;  ///< kBtpe only; null otherwise

  /// True when a draw consumes at least one uniform — i.e. the first
  /// uniform can be supplied by a batched wide-RNG group draw.
  [[nodiscard]] bool needs_draw() const noexcept {
    return regime == Regime::kLoop || regime == Regime::kInversion ||
           regime == Regime::kBtpe;
  }
};

/// Builds the plan binomial_sample(n, p) dispatches to. Requires p in
/// [0, 1].
[[nodiscard]] BinomialPlan build_binomial_plan(std::uint64_t n, double p);

namespace binomial_plan_detail {

/// Mirrors binomial_detail::small_n: p_eff lies strictly inside (0, 1) in the
/// kLoop regime, so bernoulli(p_eff) is exactly one uniform() < p_eff
/// compare per coin.
template <class RngT>
[[nodiscard]] std::uint64_t loop_draw(const BinomialPlan& plan, double first_u,
                                      bool have_first, RngT& rng) {
  std::uint64_t k = 0;
  for (std::uint64_t i = 0; i < plan.n; ++i) {
    const double u = have_first ? first_u : rng.uniform();
    have_first = false;
    k += u < plan.p_eff ? 1 : 0;
  }
  return k;
}

/// One fixed uniform, to run the uncached inversion walk at a given u.
struct FixedUniform {
  double u;
  [[nodiscard]] double uniform() const noexcept { return u; }
};

/// The inversion walk returns the smallest k with u <= cdf[k], walking
/// until the pmf recurrence underflows or k reaches n. Against the
/// precomputed prefix table that is exactly a lower_bound (first entry
/// >= u). A u above every entry (never when the cdf saturates at or
/// above 1, else a few in 2^53 draws) takes the walk itself, past the
/// table, to its bail-out point.
[[nodiscard]] inline std::uint64_t inversion_result(const BinomialPlan& plan,
                                                    double u) {
  // Guide-table lower_bound: guide[b] <= lower_bound(u) for every u in
  // bucket b (indexes below it have cdf < b/G <= u), so the forward
  // scan finds the first entry >= u in O(1) expected steps — the same
  // index a full binary search returns.
  const double* cdf = plan.cdf.data();
  const std::size_t size = plan.cdf.size();
  std::size_t b = static_cast<std::size_t>(u * plan.guide_scale);
  if (b >= plan.guide.size()) b = plan.guide.size() - 1;  // u == 1.0 guard
  std::size_t i = plan.guide[b];
  while (i + 1 < size && cdf[i] < u) ++i;
  if (cdf[i] < u) [[unlikely]] {
    FixedUniform walk_u{u};
    return binomial_detail::inversion(plan.n, plan.p_eff, walk_u);
  }
  return static_cast<std::uint64_t>(i);
}

/// binomial_detail::btpe's rejection loop over the cached setup constants —
/// expression-for-expression the uncached sampler's body, with the
/// optional caller-supplied first uniform replacing the loop's first
/// rng.uniform() (every later uniform comes from `rng`, preserving
/// per-stream draw order).
template <class RngT>
[[nodiscard]] std::uint64_t btpe_draw(const BinomialPlan& plan, double first_u,
                                      bool have_first, RngT& rng,
                                      double first_v = 0.0,
                                      bool have_v = false) {
  const BinomialPlan::BtpeSetup& bt = *plan.btpe;
  for (;;) {
    const double u = (have_first ? first_u : rng.uniform()) * bt.p4;
    have_first = false;
    double v = have_v ? first_v : rng.uniform();
    have_v = false;
    double y;
    if (u <= bt.p1) {
      y = std::floor(bt.xm - bt.p1 * v + u);
      return static_cast<std::uint64_t>(y);
    }
    if (u <= bt.p2) {
      const double x = bt.xl + (u - bt.p1) / bt.c;
      v = v * bt.c + 1.0 - std::abs(bt.xm - x) / bt.p1;
      if (v > 1.0 || v <= 0.0) continue;
      y = std::floor(x);
    } else if (u <= bt.p3) {
      y = std::floor(bt.xl + std::log(v) / bt.laml);
      if (y < 0.0) continue;
      v *= (u - bt.p2) * bt.laml;
    } else {
      y = std::floor(bt.xr - std::log(v) / bt.lamr);
      if (y > bt.nd) continue;
      v *= (u - bt.p3) * bt.lamr;
    }

    const double k = std::abs(y - bt.m);
    if (k <= 20.0 || k >= bt.nrq / 2.0 - 1.0) {
      // The walk's factor for integer i is bt.fprod[i - (m - 20)] when
      // |y - m| <= 21 (always true in the squeeze window); the far
      // tail recomputes it. Factor order is the walk's own, so the
      // running product/quotient is bit-identical either way.
      double f = 1.0;
      if (bt.m < y) {
        if (y - bt.m <= 21.0) {
          const int steps = static_cast<int>(y - bt.m);
          const double* fac = bt.fprod + 21;  // i = m + 1
          for (int j = 0; j < steps; ++j) f *= fac[j];
        } else {
          const double s = bt.r / bt.q;
          const double aa = s * (bt.nd + 1.0);
          for (double i = bt.m + 1.0; i <= y; i += 1.0) f *= (aa / i - s);
        }
      } else if (bt.m > y) {
        if (bt.m - y <= 21.0) {
          const int steps = static_cast<int>(bt.m - y);
          const double* fac = bt.fprod + 21 - steps;  // i = y + 1
          for (int j = 0; j < steps; ++j) f /= fac[j];
        } else {
          const double s = bt.r / bt.q;
          const double aa = s * (bt.nd + 1.0);
          for (double i = y + 1.0; i <= bt.m; i += 1.0) f /= (aa / i - s);
        }
      }
      if (v <= f) return static_cast<std::uint64_t>(y);
      continue;
    }
    const double rho =
        (k / bt.nrq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / bt.nrq + 0.5);
    const double t = -k * k / (2.0 * bt.nrq);
    const double alv = std::log(v);
    if (alv < t - rho) return static_cast<std::uint64_t>(y);
    if (alv > t + rho) continue;
    const double x1 = y + 1.0;
    const double f1 = bt.m + 1.0;
    const double z = bt.nd + 1.0 - bt.m;
    const double w = bt.nd - y + 1.0;
    const double target =
        bt.xm * std::log(f1 / x1) + (bt.nd - bt.m + 0.5) * std::log(z / w) +
        (y - bt.m) * std::log(w * bt.r / (x1 * bt.q)) +
        binomial_detail::stirling_tail(f1, f1 * f1) +
        binomial_detail::stirling_tail(z, z * z) +
        binomial_detail::stirling_tail(x1, x1 * x1) +
        binomial_detail::stirling_tail(w, w * w);
    if (alv <= target) return static_cast<std::uint64_t>(y);
  }
}

template <class RngT>
[[nodiscard]] std::uint64_t draw_impl(const BinomialPlan& plan, double first_u,
                                      bool have_first, RngT& rng) {
  std::uint64_t k = 0;
  switch (plan.regime) {
    case BinomialPlan::Regime::kZero: return 0;
    case BinomialPlan::Regime::kAll: return plan.n;
    case BinomialPlan::Regime::kLoop:
      k = loop_draw(plan, first_u, have_first, rng);
      break;
    case BinomialPlan::Regime::kInversion: {
      const double u = have_first ? first_u : rng.uniform();
      k = inversion_result(plan, u);
      break;
    }
    case BinomialPlan::Regime::kBtpe:
      k = btpe_draw(plan, first_u, have_first, rng);
      break;
  }
  return plan.reflect ? plan.n - k : k;
}

}  // namespace binomial_plan_detail

/// Draws from the plan, consuming uniforms from `rng` in exactly the
/// order binomial_sample(plan.n, plan.p, rng) would: bit-identical k
/// for a bit-identical uniform stream. RngT needs only
/// `double uniform()` (Rng, or a per-lane view of WideXoshiro).
template <class RngT>
[[nodiscard]] std::uint64_t binomial_plan_draw(const BinomialPlan& plan,
                                               RngT& rng) {
  return binomial_plan_detail::draw_impl(plan, 0.0, false, rng);
}

/// Same, but the draw's FIRST uniform is supplied by the caller (the
/// batched cohort engine groups it across lanes via the wide RNG);
/// any further uniforms come from `rng`. Requires plan.needs_draw() —
/// the zero-draw regimes have no first uniform to consume.
template <class RngT>
[[nodiscard]] std::uint64_t binomial_plan_draw_first(const BinomialPlan& plan,
                                                     double u0, RngT& rng) {
  JAMELECT_EXPECTS(plan.needs_draw());
  return binomial_plan_detail::draw_impl(plan, u0, true, rng);
}

/// BTPE-only variant with the first TWO uniforms supplied: the first
/// rejection attempt always consumes u then v before any accept/reject
/// test, so the batched engine groups both across lanes. Requires
/// plan.regime == kBtpe; any further uniforms come from `rng`.
template <class RngT>
[[nodiscard]] std::uint64_t binomial_plan_draw_first2(const BinomialPlan& plan,
                                                      double u0, double v0,
                                                      RngT& rng) {
  JAMELECT_EXPECTS(plan.regime == BinomialPlan::Regime::kBtpe);
  const std::uint64_t k =
      binomial_plan_detail::btpe_draw(plan, u0, true, rng, v0, true);
  return plan.reflect ? plan.n - k : k;
}

/// Memoized BinomialPlan store keyed on (n, u) with
/// p = transmit_probability(u) computed on miss (the exact call every
/// kernel cohort makes — kernels guarantee their slot probability is
/// transmit_probability(broadcast_u()) bit-for-bit).
class BinomialSamplerCache {
 public:
  /// Starts with room for `initial_capacity` entries (rounded up to a
  /// power of two).
  explicit BinomialSamplerCache(std::size_t initial_capacity = 64);

  /// Plan for Binomial(n, transmit_probability(u)). Requires u >= 0
  /// (transmit_probability's domain). The returned reference stays
  /// valid until the next clear() — plans are heap-allocated and never
  /// move, so callers may hold plan pointers across lookups. The cohort
  /// lanes hold them for a slot; their owner clears only between
  /// chunks.
  [[nodiscard]] const BinomialPlan& plan(std::uint64_t n, double u) {
    ++lookups_;
    const std::uint64_t key = std::bit_cast<std::uint64_t>(u);
    if (!dense_.empty()) {
      const double qd = u * inv_step_;
      if (qd >= 0.0 && qd < static_cast<double>(kDenseCapacity)) {
        const auto q = static_cast<std::size_t>(qd + 0.5);
        if (q < kDenseCapacity) {
          DenseSlot& d = dense_[q];
          if (d.key == key && d.n == n) {
            ++dense_hits_;
            return *d.plan;
          }
          // Miss or bucket held a different (u, n): resolve via the
          // hash map, then (re)install so the next lookup is dense.
          // Last-writer-wins — correctness comes from the key compare
          // above, the bucket only caches.
          const BinomialPlan& pl = lookup_hash(n, u, key);
          d.key = key;
          d.n = n;
          d.plan = &pl;
          return pl;
        }
      }
    }
    return lookup_hash(n, u, key);
  }

  /// Declares that u moves on a lattice of `step` (> 0) multiples,
  /// enabling the direct-mapped dense index for u in
  /// [0, step * kDenseCapacity). Purely an accelerator; off-lattice
  /// lookups stay correct via the hash path. Changing the step resets
  /// the dense index (hash entries are kept).
  void set_lattice_step(double step);

  /// Drops every plan and shrinks the tables to their initial size.
  /// Invalidates every plan reference; the counters keep counting.
  void clear();

  /// Bytes the cache holds: its hash and dense tables plus every plan.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot) +
           dense_.capacity() * sizeof(DenseSlot) + plan_bytes_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Total plan() calls since construction.
  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }
  /// Total misses (== distinct (n, u) plans built) since construction.
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  /// Lookups answered by the dense lattice index (subset of hits).
  [[nodiscard]] std::uint64_t dense_hits() const noexcept {
    return dense_hits_;
  }

  /// Dense lattice index capacity, in lattice points.
  static constexpr std::size_t kDenseCapacity = 1024;

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint64_t n = 0;
    std::unique_ptr<BinomialPlan> plan;  ///< stable address across grow()
  };

  struct DenseSlot {
    std::uint64_t key = kEmpty;
    std::uint64_t n = 0;
    const BinomialPlan* plan = nullptr;
  };

  // All-ones is the negative-NaN bit pattern; broadcast_u() is never
  // NaN (transmit_probability EXPECTS u >= 0), so it cannot collide
  // with a real key — and it is NOT the -0.0 pattern, which a protocol
  // could legitimately produce.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  [[nodiscard]] static std::size_t hash(std::uint64_t n,
                                        std::uint64_t key) noexcept {
    // splitmix64 finalizer over the (n, u-bits) pair: adjacent lattice
    // points differ in few mantissa bits and cohort sizes cluster, so
    // we need real avalanche before masking.
    std::uint64_t x = key ^ (n * 0x9e3779b97f4a7c15ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }

  [[nodiscard]] const BinomialPlan& lookup_hash(std::uint64_t n, double u,
                                                std::uint64_t key) {
    std::size_t idx = hash(n, key) & mask_;
    while (true) {
      const Slot& s = slots_[idx];
      if (s.key == key && s.n == n) return *s.plan;
      if (s.key == kEmpty) return insert_slow(n, u, key);
      idx = (idx + 1) & mask_;
    }
  }

  const BinomialPlan& insert_slow(std::uint64_t n, double u,
                                  std::uint64_t key);
  void grow();

  std::size_t initial_capacity_;  ///< power of two; clear() returns to it
  std::size_t mask_;  ///< capacity - 1 (capacity is a power of two)
  std::size_t size_ = 0;
  std::size_t plan_bytes_ = 0;  ///< sum of plan_bytes over held plans
  std::uint64_t lookups_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t dense_hits_ = 0;
  double inv_step_ = 0.0;  ///< 1 / lattice step; 0 while no lattice set
  std::vector<Slot> slots_;
  std::vector<DenseSlot> dense_;  ///< empty until set_lattice_step
};

}  // namespace jamelect
