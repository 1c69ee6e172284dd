// AVX2 backend of the fused slot primitives: 4 lanes per 256-bit
// vector, branch-free classification via compare masks.
//
// Exactness notes (the bit-identity contract depends on these):
//  * to_uniform4_avx2 equals the scalar (x >> 11) * 2^-53 bit-for-bit
//    (see support/wide_rng_step.hpp).
//  * The threshold compares use _CMP_LT_OQ — the ordinary `<` on
//    numbers (no NaNs can occur: thresholds are probabilities).
//  * All accumulator arithmetic (tx += exp_tx, u - 1.0, u + inc) is
//    the same single add/sub per lane as the scalar path — there is no
//    re-association, and max(u - 1.0, 0.0) cannot see -0.0 (u >= 0),
//    so _mm256_max_pd with the zero vector second matches std::max.
#include <cstddef>
#include <cstdint>

#include "sim/batch_wide.hpp"
#include "support/wide_rng_step.hpp"

#if !defined(__AVX2__)
#error "batch_wide_avx2.cpp must be compiled with -mavx2"
#endif

namespace jamelect::wide::avx2 {

namespace {

using wide_detail::step4_avx2;
using wide_detail::to_uniform4_avx2;

/// Per-group working set: advances the group's rng states in place and
/// yields the uniform draws plus the classification masks.
struct GroupClassify {
  __m256d r;        ///< the four uniform draws
  __m256i lt0;      ///< all-ones where r < c_null   (Null)
  __m256i lt1;      ///< all-ones where r < c_single (Null or Single)
  __m256i single_;  ///< all-ones where exactly Single
};

inline __m256i load64(const std::uint64_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline __m256i load64(const std::int64_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store64(std::uint64_t* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline void store64(std::int64_t* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

inline __m256d advance_group(const LaneBlock& b, std::size_t i) noexcept {
  __m256i v0 = load64(b.s0 + i);
  __m256i v1 = load64(b.s1 + i);
  __m256i v2 = load64(b.s2 + i);
  __m256i v3 = load64(b.s3 + i);
  const __m256i x = step4_avx2(v0, v1, v2, v3);
  store64(b.s0 + i, v0);
  store64(b.s1 + i, v1);
  store64(b.s2 + i, v2);
  store64(b.s3 + i, v3);
  return to_uniform4_avx2(x);
}

/// Classifies the group's draws and folds them into the accumulators:
///   state = 2 + lt0 + lt1 (masks are -1), nulls -= lt0,
///   singles += lt0 - lt1, tx += exp_tx.
inline GroupClassify classify_group(const LaneBlock& b, std::size_t i,
                                    __m256d r) noexcept {
  GroupClassify g;
  g.r = r;
  const __m256d cn = _mm256_loadu_pd(b.c_null + i);
  const __m256d cs = _mm256_loadu_pd(b.c_single + i);
  g.lt0 = _mm256_castpd_si256(_mm256_cmp_pd(r, cn, _CMP_LT_OQ));
  g.lt1 = _mm256_castpd_si256(_mm256_cmp_pd(r, cs, _CMP_LT_OQ));
  g.single_ = _mm256_andnot_si256(g.lt0, g.lt1);
  const __m256i two = _mm256_set1_epi64x(2);
  const __m256i state = _mm256_add_epi64(two, _mm256_add_epi64(g.lt0, g.lt1));
  store64(b.states + i, state);
  store64(b.nulls + i, _mm256_sub_epi64(load64(b.nulls + i), g.lt0));
  store64(b.singles + i,
          _mm256_add_epi64(load64(b.singles + i),
                           _mm256_sub_epi64(g.lt0, g.lt1)));
  const __m256d tx = _mm256_loadu_pd(b.transmissions + i);
  _mm256_storeu_pd(b.transmissions + i,
                   _mm256_add_pd(tx, _mm256_loadu_pd(b.exp_tx + i)));
  return g;
}

}  // namespace

bool clean_slot(const LaneBlock& b, std::size_t groups) noexcept {
  __m256i any_single = _mm256_setzero_si256();
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t i = g * kWideLanes;
    const GroupClassify c = classify_group(b, i, advance_group(b, i));
    any_single = _mm256_or_si256(any_single, c.single_);
  }
  return _mm256_movemask_pd(_mm256_castsi256_pd(any_single)) != 0;
}

bool clean_slot_lesk(const LaneBlock& b, double* us, double inc,
                     std::size_t groups) noexcept {
  __m256i any_single = _mm256_setzero_si256();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vinc = _mm256_set1_pd(inc);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t i = g * kWideLanes;
    const GroupClassify c = classify_group(b, i, advance_group(b, i));
    any_single = _mm256_or_si256(any_single, c.single_);
    // LeskKernel::step on u: Null -> max(u-1, 0), Collision -> u+inc,
    // Single -> unchanged. blendv takes the second operand where the
    // mask's sign bit is set.
    const __m256d u = _mm256_loadu_pd(us + i);
    const __m256d u_null = _mm256_max_pd(_mm256_sub_pd(u, one), zero);
    const __m256d u_coll = _mm256_add_pd(u, vinc);
    __m256d next =
        _mm256_blendv_pd(u_coll, u_null, _mm256_castsi256_pd(c.lt0));
    next = _mm256_blendv_pd(next, u, _mm256_castsi256_pd(c.single_));
    _mm256_storeu_pd(us + i, next);
  }
  return _mm256_movemask_pd(_mm256_castsi256_pd(any_single)) != 0;
}

}  // namespace jamelect::wide::avx2
