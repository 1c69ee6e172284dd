// Portable 4-wide backend of the fused slot primitives, the AVX2
// wrappers that finish a partial group scalar, and the backend
// dispatch table. The loops are written scalar per lane; the
// fixed 4-lane group width and the absence of branches on data keep
// them auto-vectorizer-friendly, but correctness never depends on it.
#include "sim/batch_wide.hpp"

#include <algorithm>

#include "support/wide_rng_step.hpp"

namespace jamelect::wide {

#if defined(JAMELECT_WIDE_AVX2)
// Implemented in batch_wide_avx2.cpp (built with -mavx2).
namespace avx2 {
bool clean_slot(const LaneBlock& b, std::size_t groups) noexcept;
bool clean_slot_lesk(const LaneBlock& b, double* us, double inc,
                     std::size_t groups) noexcept;
}  // namespace avx2
#endif

namespace {

using wide_detail::step1;
using wide_detail::to_uniform;

/// Classifies lane k's draw and folds it into the accumulators;
/// returns the resolved state (0 Null / 1 Single / 2 Collision).
inline std::int64_t classify_lane(const LaneBlock& b, std::size_t k,
                                  double r) noexcept {
  const std::int64_t lt0 = r < b.c_null[k] ? 1 : 0;
  const std::int64_t lt1 = r < b.c_single[k] ? 1 : 0;
  const std::int64_t state = 2 - lt0 - lt1;
  b.states[k] = state;
  b.nulls[k] += lt0;
  b.singles[k] += lt1 - lt0;
  b.transmissions[k] += b.exp_tx[k];
  return state;
}

/// Lanes [begin, end) of clean_slot, one lane at a time.
bool clean_lanes(const LaneBlock& b, std::size_t begin, std::size_t end) {
  std::int64_t singles = 0;
  for (std::size_t k = begin; k < end; ++k) {
    const double r = to_uniform(step1(b.s0[k], b.s1[k], b.s2[k], b.s3[k]));
    singles += classify_lane(b, k, r) == 1 ? 1 : 0;
  }
  return singles != 0;
}

/// Lanes [begin, end) of clean_slot_lesk, one lane at a time.
bool clean_lanes_lesk(const LaneBlock& b, double* us, double inc,
                      std::size_t begin, std::size_t end) {
  std::int64_t singles = 0;
  for (std::size_t k = begin; k < end; ++k) {
    const double r = to_uniform(step1(b.s0[k], b.s1[k], b.s2[k], b.s3[k]));
    const std::int64_t state = classify_lane(b, k, r);
    // LeskKernel::step, branch-free-ish: Null walks u down (floored at
    // exactly 0.0, the same std::max expression as the kernel),
    // Collision walks it up, Single leaves it (the lane retires).
    const double u_null = std::max(us[k] - 1.0, 0.0);
    const double u_coll = us[k] + inc;
    us[k] = state == 0 ? u_null : (state == 2 ? u_coll : us[k]);
    singles += state == 1 ? 1 : 0;
  }
  return singles != 0;
}

bool clean_slot_scalar4(const LaneBlock& b, std::size_t lanes) {
  return clean_lanes(b, 0, lanes);
}

bool clean_slot_lesk_scalar4(const LaneBlock& b, double* us, double inc,
                             std::size_t lanes) {
  return clean_lanes_lesk(b, us, inc, 0, lanes);
}

constexpr SlotOps kScalar4Ops{
    clean_slot_scalar4,
    clean_slot_lesk_scalar4,
};

#if defined(JAMELECT_WIDE_AVX2)
// Whole groups go through the AVX2 kernels, the remainder through the
// scalar lanes above (the same exact expressions lane for lane).
bool clean_slot_avx2(const LaneBlock& b, std::size_t lanes) {
  const std::size_t whole = lanes / kWideLanes;
  const bool any = avx2::clean_slot(b, whole);
  return clean_lanes(b, whole * kWideLanes, lanes) || any;
}

bool clean_slot_lesk_avx2(const LaneBlock& b, double* us, double inc,
                          std::size_t lanes) {
  const std::size_t whole = lanes / kWideLanes;
  const bool any = avx2::clean_slot_lesk(b, us, inc, whole);
  return clean_lanes_lesk(b, us, inc, whole * kWideLanes, lanes) || any;
}

constexpr SlotOps kAvx2Ops{
    clean_slot_avx2,
    clean_slot_lesk_avx2,
};
#endif

}  // namespace

const SlotOps& slot_ops(WideIsa isa) noexcept {
#if defined(JAMELECT_WIDE_AVX2)
  if (isa == WideIsa::kAvx2) return kAvx2Ops;
#else
  (void)isa;
#endif
  return kScalar4Ops;
}

}  // namespace jamelect::wide
