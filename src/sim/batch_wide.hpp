// Fused per-slot SIMD primitives for the wide batch engines
// (sim/batch.cpp: the aggregate lanes, and the hybrid lanes' category
// roles). One call advances every lane's
// xoshiro256** stream, converts the draws to uniforms, classifies them
// against per-lane cumulative thresholds, and accumulates the per-lane
// outcome counters — branch-free, one SIMD group (kWideLanes lanes) at
// a time, with a remainder of fewer than kWideLanes lanes run scalar.
//
// Classification is the branch-free mirror of run_aggregate's
// (sim/aggregate.cpp) draw-vs-threshold categorization:
//   lt0 = r < c_null, lt1 = r < c_single  (lt0 implies lt1),
//   state = 2 - lt0 - lt1   (0 = Null, 1 = Single, 2 = Collision),
//   nulls += lt0, singles += lt1 - lt0, transmissions += exp_tx.
// The *_lesk variants additionally fold in LeskKernel::step on the SoA
// u array: Null -> max(u - 1, 0), Collision -> u + inc, Single ->
// unchanged (the lane retires this slot). A jammed lane runs the same
// variant with both thresholds at 0.0: r < 0.0 never holds, so it
// classifies as Collision with its draw consumed (the sequential
// engine draws and discards).
//
// Both backends process lanes in ascending order with the exact scalar
// double expressions (the AVX2 u64->double conversion and max/add/blend
// sequences are exact step-for-step), so the per-lane accumulator
// values are bit-identical to the sequential engine's.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/wide_rng.hpp"

namespace jamelect::wide {

/// SoA views of the wide engine's per-lane state. All arrays hold at
/// least `lanes` elements; the rng planes come from
/// WideXoshiro::plane(0..3), possibly offset to a sub-range of lanes.
struct LaneBlock {
  std::uint64_t* s0;
  std::uint64_t* s1;
  std::uint64_t* s2;
  std::uint64_t* s3;
  const double* c_null;    ///< per-lane P[Null] threshold
  const double* c_single;  ///< per-lane P[Null] + P[Single] threshold
  const double* exp_tx;    ///< per-lane expected transmissions (n * p)
  double* transmissions;   ///< per-lane accumulator
  std::int64_t* nulls;     ///< per-lane accumulator
  std::int64_t* singles;   ///< per-lane accumulator
  std::int64_t* states;    ///< out: this slot's ChannelState per lane
};

/// One backend's fused slot kernels; both process lanes [0, lanes) —
/// any count, so a block may start and end anywhere in a lane array —
/// and return true iff any lane resolved Single (the engine's cue to
/// run a retirement or phase-change pass). Lanes outside the range are
/// never touched.
struct SlotOps {
  bool (*clean_slot)(const LaneBlock& b, std::size_t lanes);
  bool (*clean_slot_lesk)(const LaneBlock& b, double* us, double inc,
                          std::size_t lanes);
};

/// The fused kernels for one backend (resolve with active_wide_isa()).
[[nodiscard]] const SlotOps& slot_ops(WideIsa isa) noexcept;

}  // namespace jamelect::wide
