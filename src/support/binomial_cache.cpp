#include "support/binomial_cache.hpp"

#include <utility>

#include "support/math.hpp"

namespace jamelect {

namespace {

/// Bytes one plan occupies: its struct, tables and BTPE constants.
std::size_t plan_bytes(const BinomialPlan& plan) noexcept {
  return sizeof(BinomialPlan) + plan.cdf.capacity() * sizeof(double) +
         plan.guide.capacity() * sizeof(std::uint32_t) +
         (plan.btpe ? sizeof(BinomialPlan::BtpeSetup) : 0);
}

}  // namespace

BinomialPlan build_binomial_plan(std::uint64_t n, double p) {
  // Same contract — and the same dispatch ladder, expression for
  // expression — as binomial_sample (support/binomial.hpp). Any edit
  // there must be mirrored here or the bit-identity contract breaks
  // (pinned by BinomialPlanEquivalence in
  // tests/cohort_batch_equivalence_test.cpp).
  JAMELECT_EXPECTS(p >= 0.0 && p <= 1.0);
  BinomialPlan plan;
  plan.n = n;
  plan.p = p;
  plan.p_eff = p;
  if (n == 0 || p <= 0.0) {
    plan.regime = BinomialPlan::Regime::kZero;
    return plan;
  }
  if (p >= 1.0) {
    plan.regime = BinomialPlan::Regime::kAll;
    return plan;
  }
  if (p > 0.5) {
    // The reflection binomial_sample applies by recursing with 1 - p:
    // the subtraction is exact for the comparison, and draw_impl
    // returns n - k just as the recursion's caller does.
    plan.reflect = true;
    plan.p_eff = 1.0 - p;
  }
  if (n <= 128) {
    plan.regime = BinomialPlan::Regime::kLoop;
    return plan;
  }
  const double nd = static_cast<double>(n);
  const double mean = nd * plan.p_eff;
  if (mean <= 30.0) {
    plan.regime = BinomialPlan::Regime::kInversion;
    // Prefix sums of the inversion walk's pmf recurrence: cdf[j] is the
    // walk's running cdf after computing pmf_j. The table stops where
    // the cdf first stops moving (a pmf below half an ulp of it, or
    // underflowed to 0) or at j = n. Below its last entry, lower_bound
    // is the walk's exit verbatim: the walk cannot have bailed out
    // earlier, as an underflow would have stalled the cdf. Above it,
    // inversion_result runs the walk itself. At mean 30 the cdf stalls
    // after about 90 entries, where the pmf underflows after about 450.
    const double p_eff = plan.p_eff;
    const double log_p0 = nd * std::log1p(-p_eff);
    double pmf = std::exp(log_p0);
    const double odds = p_eff / (1.0 - p_eff);
    double cdf = pmf;
    plan.cdf.push_back(cdf);
    for (std::uint64_t k = 0; k < n; ++k) {
      pmf *=
          (nd - static_cast<double>(k)) / (static_cast<double>(k) + 1.0) * odds;
      if (cdf + pmf == cdf) break;
      cdf += pmf;
      plan.cdf.push_back(cdf);
    }
    plan.cdf.shrink_to_fit();
    // Guide table: first index with cdf >= b / G per bucket b. Sized
    // ~2 entries of headroom per cdf entry (capped) so the lookup's
    // forward scan averages under one step.
    std::size_t g = 8;
    while (g < 2 * plan.cdf.size() && g < 4096) g <<= 1;
    plan.guide.resize(g);
    plan.guide_scale = static_cast<double>(g);
    std::size_t idx = 0;
    for (std::size_t b = 0; b < g; ++b) {
      const double threshold =
          static_cast<double>(b) / static_cast<double>(g);
      while (idx + 1 < plan.cdf.size() && plan.cdf[idx] < threshold) ++idx;
      plan.guide[b] = static_cast<std::uint32_t>(idx);
    }
    return plan;
  }
  plan.regime = BinomialPlan::Regime::kBtpe;
  auto setup = std::make_unique<BinomialPlan::BtpeSetup>();
  BinomialPlan::BtpeSetup& bt = *setup;
  bt.nd = nd;
  bt.r = plan.p_eff;
  bt.q = 1.0 - bt.r;
  bt.nrq = bt.nd * bt.r * bt.q;
  const double fm = bt.nd * bt.r + bt.r;
  bt.m = std::floor(fm);
  bt.p1 = std::floor(2.195 * std::sqrt(bt.nrq) - 4.6 * bt.q) + 0.5;
  bt.xm = bt.m + 0.5;
  bt.xl = bt.xm - bt.p1;
  bt.xr = bt.xm + bt.p1;
  bt.c = 0.134 + 20.5 / (15.3 + bt.m);
  double slope = (fm - bt.xl) / (fm - bt.xl * bt.r);
  bt.laml = slope * (1.0 + 0.5 * slope);
  slope = (bt.xr - fm) / (bt.xr * bt.q);
  bt.lamr = slope * (1.0 + 0.5 * slope);
  bt.p2 = bt.p1 * (1.0 + 2.0 * bt.c);
  bt.p3 = bt.p2 + bt.c / bt.laml;
  bt.p4 = bt.p3 + bt.c / bt.lamr;
  // f-product factors for the exact test's squeeze window (mean > 30
  // implies m >= 30, so every i here is positive). Each entry is the
  // same aa / i - s expression btpe_draw's walk would evaluate —
  // division and subtraction are exact IEEE ops, so hoisting them
  // cannot change a bit.
  {
    const double s = bt.r / bt.q;
    const double aa = s * (bt.nd + 1.0);
    for (int j = 0; j < 42; ++j) {
      const double i = bt.m - 20.0 + static_cast<double>(j);
      bt.fprod[j] = i > 0.0 ? aa / i - s : 0.0;
    }
  }
  plan.btpe = std::move(setup);
  return plan;
}

BinomialSamplerCache::BinomialSamplerCache(std::size_t initial_capacity) {
  std::size_t cap = 8;
  while (cap < initial_capacity) cap <<= 1;
  initial_capacity_ = cap;
  mask_ = cap - 1;
  slots_.resize(cap);
}

void BinomialSamplerCache::clear() {
  slots_ = std::vector<Slot>(initial_capacity_);
  mask_ = initial_capacity_ - 1;
  size_ = 0;
  plan_bytes_ = 0;
  // Dense slots point at the plans just freed.
  if (!dense_.empty()) dense_.assign(kDenseCapacity, DenseSlot{});
}

void BinomialSamplerCache::set_lattice_step(double step) {
  JAMELECT_EXPECTS(step > 0.0);
  // Re-declaring the step the lattice already uses keeps the dense
  // index warm across chunks (the per-thread cache sees one
  // set_lattice_step per chunk). Plans are pure functions of (n, u),
  // so staying warm cannot change a lookup result. A genuinely
  // different step rebuilds the dense index; hash entries stay valid.
  const double inv = 1.0 / step;
  if (inv == inv_step_ && !dense_.empty()) return;
  inv_step_ = inv;
  dense_.assign(kDenseCapacity, DenseSlot{});
}

const BinomialPlan& BinomialSamplerCache::insert_slow(std::uint64_t n,
                                                      double u,
                                                      std::uint64_t key) {
  JAMELECT_EXPECTS(key != kEmpty);  // u is never NaN on the hot path
  ++misses_;
  if (size_ + 1 > (mask_ + 1) - (mask_ + 1) / 4) grow();

  // The exact call every kernel cohort makes: the kernels guarantee
  // their slot probability equals transmit_probability(broadcast_u())
  // bit-for-bit, so planning from u loses nothing.
  auto plan = std::make_unique<BinomialPlan>(
      build_binomial_plan(n, transmit_probability(u)));

  std::size_t idx = hash(n, key) & mask_;
  while (slots_[idx].key != kEmpty) idx = (idx + 1) & mask_;
  plan_bytes_ += plan_bytes(*plan);
  slots_[idx] = Slot{key, n, std::move(plan)};
  ++size_;
  return *slots_[idx].plan;
}

void BinomialSamplerCache::grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t cap = (mask_ + 1) * 2;
  mask_ = cap - 1;
  slots_.clear();
  slots_.resize(cap);
  for (Slot& s : old) {
    if (s.key == kEmpty) continue;
    std::size_t idx = hash(s.n, s.key) & mask_;
    while (slots_[idx].key != kEmpty) idx = (idx + 1) & mask_;
    slots_[idx] = std::move(s);
  }
  // Plans live behind unique_ptr, so dense-index plan pointers taken
  // before the rehash stay valid.
}

}  // namespace jamelect
