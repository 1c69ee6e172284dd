// AVX2 backend for WideXoshiro's group operations. This TU (and the
// sim-side batch_wide_avx2.cpp) is the only code built with -mavx2;
// everything else stays at the baseline ISA so the binary runs on
// non-AVX2 machines, where active_wide_isa() never routes here.
#include <cstddef>
#include <cstdint>

#include "support/wide_rng_step.hpp"

#if !defined(__AVX2__)
#error "wide_rng_avx2.cpp must be compiled with -mavx2"
#endif

namespace jamelect::wide_detail {

void uniform_groups_avx2(std::uint64_t* s0, std::uint64_t* s1,
                         std::uint64_t* s2, std::uint64_t* s3,
                         std::size_t groups, double* out) noexcept {
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t i = g * 4;
    __m256i v0 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s0 + i));
    __m256i v1 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s1 + i));
    __m256i v2 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s2 + i));
    __m256i v3 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s3 + i));
    const __m256i x = step4_avx2(v0, v1, v2, v3);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(s0 + i), v0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(s1 + i), v1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(s2 + i), v2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(s3 + i), v3);
    _mm256_storeu_pd(out + i, to_uniform4_avx2(x));
  }
}

void uniform_groups2_avx2(std::uint64_t* s0, std::uint64_t* s1,
                          std::uint64_t* s2, std::uint64_t* s3,
                          std::size_t groups, double* out_u,
                          double* out_v) noexcept {
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t i = g * 4;
    __m256i v0 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s0 + i));
    __m256i v1 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s1 + i));
    __m256i v2 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s2 + i));
    __m256i v3 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s3 + i));
    const __m256i xu = step4_avx2(v0, v1, v2, v3);
    const __m256i xv = step4_avx2(v0, v1, v2, v3);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(s0 + i), v0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(s1 + i), v1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(s2 + i), v2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(s3 + i), v3);
    _mm256_storeu_pd(out_u + i, to_uniform4_avx2(xu));
    _mm256_storeu_pd(out_v + i, to_uniform4_avx2(xv));
  }
}

void uniform_masked_avx2(std::uint64_t* s0, std::uint64_t* s1,
                         std::uint64_t* s2, std::uint64_t* s3,
                         std::size_t groups, const std::uint8_t* mask,
                         double* out) noexcept {
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t i = g * 4;
    const bool m0 = mask[i] != 0, m1 = mask[i + 1] != 0;
    const bool m2 = mask[i + 2] != 0, m3 = mask[i + 3] != 0;
    if (m0 && m1 && m2 && m3) {
      __m256i v0 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s0 + i));
      __m256i v1 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s1 + i));
      __m256i v2 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s2 + i));
      __m256i v3 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s3 + i));
      const __m256i x = step4_avx2(v0, v1, v2, v3);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(s0 + i), v0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(s1 + i), v1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(s2 + i), v2);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(s3 + i), v3);
      _mm256_storeu_pd(out + i, to_uniform4_avx2(x));
      continue;
    }
    if (!(m0 || m1 || m2 || m3)) continue;
    // Partial group: advance each masked lane scalar. The scalar step
    // is bit-identical to the vector step, so draw values do not
    // depend on which path a lane took.
    for (std::size_t k = i; k < i + 4; ++k) {
      if (mask[k] != 0) out[k] = to_uniform(step1(s0[k], s1[k], s2[k], s3[k]));
    }
  }
}

void count_below_avx2(std::uint64_t* s0, std::uint64_t* s1, std::uint64_t* s2,
                      std::uint64_t* s3, std::uint64_t steps,
                      const std::uint8_t* mask,
                      const std::uint64_t* thresholds,
                      std::uint64_t* counts) noexcept {
  // AVX2 compares only signed 64-bit words; flipping the sign bit of
  // both sides turns the unsigned raw < threshold into a signed one.
  const __m256i sign = _mm256_set1_epi64x(INT64_MIN);
  const __m256i limit = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(thresholds)), sign);
  __m256i v0 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s0));
  __m256i v1 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s1));
  __m256i v2 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s2));
  __m256i v3 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(s3));
  __m256i below = _mm256_setzero_si256();
  for (std::uint64_t i = 0; i < steps; ++i) {
    const __m256i x = _mm256_xor_si256(step4_avx2(v0, v1, v2, v3), sign);
    // The compare yields -1 per lane where x < limit.
    below = _mm256_sub_epi64(below, _mm256_cmpgt_epi64(limit, x));
  }
  // Every lane stepped in registers; only masked lanes keep the result.
  const __m256i keep = _mm256_set_epi64x(
      mask[3] != 0 ? -1 : 0, mask[2] != 0 ? -1 : 0, mask[1] != 0 ? -1 : 0,
      mask[0] != 0 ? -1 : 0);
  _mm256_maskstore_epi64(reinterpret_cast<long long*>(s0), keep, v0);
  _mm256_maskstore_epi64(reinterpret_cast<long long*>(s1), keep, v1);
  _mm256_maskstore_epi64(reinterpret_cast<long long*>(s2), keep, v2);
  _mm256_maskstore_epi64(reinterpret_cast<long long*>(s3), keep, v3);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts),
                      _mm256_and_si256(below, keep));
}

}  // namespace jamelect::wide_detail
