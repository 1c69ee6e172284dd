#include "support/wide_rng.hpp"

#include <atomic>
#include <cstdlib>

namespace jamelect {

namespace wide_detail {

#if defined(JAMELECT_WIDE_AVX2)
// Implemented in wide_rng_avx2.cpp (the only support TU built -mavx2).
void uniform_groups_avx2(std::uint64_t* s0, std::uint64_t* s1,
                         std::uint64_t* s2, std::uint64_t* s3,
                         std::size_t groups, double* out) noexcept;
void uniform_masked_avx2(std::uint64_t* s0, std::uint64_t* s1,
                         std::uint64_t* s2, std::uint64_t* s3,
                         std::size_t groups, const std::uint8_t* mask,
                         double* out) noexcept;
void uniform_groups2_avx2(std::uint64_t* s0, std::uint64_t* s1,
                          std::uint64_t* s2, std::uint64_t* s3,
                          std::size_t groups, double* out_u,
                          double* out_v) noexcept;
void count_below_avx2(std::uint64_t* s0, std::uint64_t* s1, std::uint64_t* s2,
                      std::uint64_t* s3, std::uint64_t steps,
                      const std::uint8_t* mask,
                      const std::uint64_t* thresholds,
                      std::uint64_t* counts) noexcept;
#endif

namespace {

void uniform_groups_scalar4(std::uint64_t* s0, std::uint64_t* s1,
                            std::uint64_t* s2, std::uint64_t* s3,
                            std::size_t groups, double* out) noexcept {
  const std::size_t lanes = groups * kWideLanes;
  for (std::size_t k = 0; k < lanes; ++k) {
    out[k] = to_uniform(step1(s0[k], s1[k], s2[k], s3[k]));
  }
}

void uniform_masked_scalar4(std::uint64_t* s0, std::uint64_t* s1,
                            std::uint64_t* s2, std::uint64_t* s3,
                            std::size_t groups, const std::uint8_t* mask,
                            double* out) noexcept {
  const std::size_t lanes = groups * kWideLanes;
  for (std::size_t k = 0; k < lanes; ++k) {
    if (mask[k] != 0) out[k] = to_uniform(step1(s0[k], s1[k], s2[k], s3[k]));
  }
}

void uniform_groups2_scalar4(std::uint64_t* s0, std::uint64_t* s1,
                             std::uint64_t* s2, std::uint64_t* s3,
                             std::size_t groups, double* out_u,
                             double* out_v) noexcept {
  const std::size_t lanes = groups * kWideLanes;
  for (std::size_t k = 0; k < lanes; ++k) {
    out_u[k] = to_uniform(step1(s0[k], s1[k], s2[k], s3[k]));
    out_v[k] = to_uniform(step1(s0[k], s1[k], s2[k], s3[k]));
  }
}

void count_below_scalar4(std::uint64_t* s0, std::uint64_t* s1,
                         std::uint64_t* s2, std::uint64_t* s3,
                         std::uint64_t steps, const std::uint8_t* mask,
                         const std::uint64_t* thresholds,
                         std::uint64_t* counts) noexcept {
  // Mirrors the AVX2 kernel: all four lanes step in locals (four
  // independent chains), and only masked lanes store their state back.
  std::uint64_t a[kWideLanes], b[kWideLanes], c[kWideLanes], d[kWideLanes];
  std::uint64_t below[kWideLanes] = {};
  for (std::size_t k = 0; k < kWideLanes; ++k) {
    a[k] = s0[k];
    b[k] = s1[k];
    c[k] = s2[k];
    d[k] = s3[k];
  }
  for (std::uint64_t i = 0; i < steps; ++i) {
    for (std::size_t k = 0; k < kWideLanes; ++k) {
      below[k] += step1(a[k], b[k], c[k], d[k]) < thresholds[k] ? 1 : 0;
    }
  }
  for (std::size_t k = 0; k < kWideLanes; ++k) {
    counts[k] = 0;
    if (mask[k] == 0) continue;
    s0[k] = a[k];
    s1[k] = b[k];
    s2[k] = c[k];
    s3[k] = d[k];
    counts[k] = below[k];
  }
}

}  // namespace
}  // namespace wide_detail

namespace {

constexpr int kIsaUnresolved = -1;
std::atomic<int> g_wide_isa{kIsaUnresolved};

[[nodiscard]] bool force_scalar_env() noexcept {
  const char* v = std::getenv("JAMELECT_FORCE_SCALAR");
  if (v == nullptr || v[0] == '\0') return false;
  return !(v[0] == '0' && v[1] == '\0');
}

[[nodiscard]] WideIsa resolve_wide_isa() noexcept {
  if (wide_avx2_supported() && !force_scalar_env()) return WideIsa::kAvx2;
  return WideIsa::kScalar4;
}

}  // namespace

WideIsa active_wide_isa() noexcept {
  int v = g_wide_isa.load(std::memory_order_acquire);
  if (v == kIsaUnresolved) {
    v = static_cast<int>(resolve_wide_isa());
    g_wide_isa.store(v, std::memory_order_release);
  }
  return static_cast<WideIsa>(v);
}

bool wide_avx2_supported() noexcept {
#if defined(JAMELECT_WIDE_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const char* wide_isa_name(WideIsa isa) noexcept {
  return isa == WideIsa::kAvx2 ? "avx2" : "scalar4";
}

void set_wide_isa_for_testing(WideIsa isa) {
  JAMELECT_EXPECTS(isa != WideIsa::kAvx2 || wide_avx2_supported());
  g_wide_isa.store(static_cast<int>(isa), std::memory_order_release);
}

void reset_wide_isa_for_testing() noexcept {
  g_wide_isa.store(kIsaUnresolved, std::memory_order_release);
}

void WideXoshiro::uniform_groups(std::size_t groups, double* out) noexcept {
#if defined(JAMELECT_WIDE_AVX2)
  if (isa_ == WideIsa::kAvx2) {
    wide_detail::uniform_groups_avx2(plane(0), plane(1), plane(2), plane(3),
                                     groups, out);
    return;
  }
#endif
  wide_detail::uniform_groups_scalar4(plane(0), plane(1), plane(2), plane(3),
                                      groups, out);
}

void WideXoshiro::uniform_masked(std::size_t first_group,
                                 std::size_t end_group,
                                 const std::uint8_t* mask,
                                 double* out) noexcept {
  // Both backends walk from the range's first lane: the planes, the
  // mask and out are offset alike, so lanes before it are never read.
  const std::size_t i = first_group * kWideLanes;
  const std::size_t groups = end_group - first_group;
#if defined(JAMELECT_WIDE_AVX2)
  if (isa_ == WideIsa::kAvx2) {
    wide_detail::uniform_masked_avx2(plane(0) + i, plane(1) + i, plane(2) + i,
                                     plane(3) + i, groups, mask + i, out + i);
    return;
  }
#endif
  wide_detail::uniform_masked_scalar4(plane(0) + i, plane(1) + i,
                                      plane(2) + i, plane(3) + i, groups,
                                      mask + i, out + i);
}

void WideXoshiro::uniform_groups2(std::size_t groups, double* out_u,
                                  double* out_v) noexcept {
#if defined(JAMELECT_WIDE_AVX2)
  if (isa_ == WideIsa::kAvx2) {
    wide_detail::uniform_groups2_avx2(plane(0), plane(1), plane(2), plane(3),
                                      groups, out_u, out_v);
    return;
  }
#endif
  wide_detail::uniform_groups2_scalar4(plane(0), plane(1), plane(2), plane(3),
                                       groups, out_u, out_v);
}

void WideXoshiro::count_below(std::size_t group, std::uint64_t steps,
                              const std::uint8_t* mask,
                              const std::uint64_t* thresholds,
                              std::uint64_t* counts) noexcept {
  const std::size_t i = group * kWideLanes;
#if defined(JAMELECT_WIDE_AVX2)
  if (isa_ == WideIsa::kAvx2) {
    wide_detail::count_below_avx2(plane(0) + i, plane(1) + i, plane(2) + i,
                                  plane(3) + i, steps, mask, thresholds,
                                  counts);
    return;
  }
#endif
  wide_detail::count_below_scalar4(plane(0) + i, plane(1) + i, plane(2) + i,
                                   plane(3) + i, steps, mask, thresholds,
                                   counts);
}

}  // namespace jamelect
