// SlotProbCache — memoized slot_probabilities keyed on the broadcast
// exponent u.
//
// LESK and LESU move u on the {-1, +eps/8} lattice: after any prefix
// of Null/Collision observations, u lies in the small set
// {max(0, u0 - a + b*eps/8)} of lattice points actually visited. A
// long Monte-Carlo run therefore evaluates slot_probabilities(n, 2^-u)
// for only a handful of distinct u values — but the sequential engine
// recomputes the log1p + 2*exp chain every slot. This cache collapses
// that to one open-addressing hash lookup on u's bit pattern.
//
// Lattice fast path: when the caller declares the lattice pitch via
// set_lattice_step (LESK: eps/8), lookups additionally consult a small
// direct-mapped table indexed by round(u / step). Steady-state slots —
// and the wide engine's batched lookup_lanes — then cost one multiply,
// one round, and one compare instead of a hash probe per lane; on the
// AVX2 backend lookup_lanes answers whole 4-lane groups with vector
// gathers over the table (slot_prob_cache_avx2.cpp). The
// index is a pure accelerator: every dense slot stores the exact key
// bits and is verified before use, so off-lattice u values (or lattice
// points whose accumulated floating-point drift collides in the same
// bucket) simply fall back to the hash path. Never a wrong answer.
//
// Bit-identity: entries are computed by the exact same calls the
// aggregate engine makes — p = transmit_probability(u), then
// slot_probabilities(n, p), and exp_tx = double(n) * p — so a cached
// lookup returns bit-identical doubles to the uncached path. Keying on
// the bit pattern (not the value) keeps the map exact: distinct
// doubles never alias. +0.0 and -0.0 get separate entries with equal
// payloads, which is merely a wasted slot, never a wrong answer.
//
// The cache is unsynchronized. The batch engines keep a few per worker
// thread (sim/batch.cpp), warm across chunks, and drop them between
// chunks once the thread's memos outgrow their byte budget (bytes()).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/expects.hpp"
#include "support/math.hpp"

namespace jamelect {

class SlotProbCache {
 public:
  struct Entry {
    double p;         ///< transmit_probability(u)
    double c_null;    ///< P[Null]
    double c_single;  ///< P[Null] + P[Single]  (cumulative)
    double exp_tx;    ///< n * p: the slot's expected transmissions
  };

  /// Cache for a fixed station count n (> 0). Starts with room for
  /// `initial_capacity` entries (rounded up to a power of two).
  explicit SlotProbCache(std::uint64_t n, std::size_t initial_capacity = 64);

  /// Probabilities for a slot where each of n stations transmits w.p.
  /// transmit_probability(u). Fast path: one dense-index compare (when
  /// a lattice is declared) or one hash + probe on a hit. The returned
  /// reference is valid until the next lookup of a *different* u.
  [[nodiscard]] const Entry& lookup(double u) {
    ++lookups_;
    const std::uint64_t key = std::bit_cast<std::uint64_t>(u);
    if (!dense_.empty()) {
      const double qd = u * inv_step_;
      if (qd >= 0.0 && qd < static_cast<double>(kDenseCapacity)) {
        const auto q = static_cast<std::size_t>(qd + 0.5);
        if (q < kDenseCapacity) {
          DenseSlot& d = dense_[q];
          if (d.key == key) {
            ++dense_hits_;
            return d.entry;
          }
          // Miss or bucket held a different key: resolve via the hash
          // map, then (re)install so the next lookup of this u is
          // dense. Last-writer-wins is fine — correctness comes from
          // the key compare above, the bucket only caches.
          const Entry& e = lookup_hash(u, key);
          d.key = key;
          d.entry = e;
          return d.entry;
        }
      }
    }
    return lookup_hash(u, key);
  }

  /// Batched lookup for the SIMD-wide engines: for each of the `count`
  /// lanes, writes Entry{c_null, c_single, exp_tx} for us[k] into the
  /// parallel output arrays. Same entries — and the same counter
  /// deltas — as `count` lookup() calls. When a lattice is declared
  /// and the AVX2 backend is active, whole 4-lane groups are answered
  /// straight from the dense index with vector gathers.
  void lookup_lanes(const double* us, std::size_t count, double* c_null,
                    double* c_single, double* exp_tx);

  /// Declares that u moves on a lattice of `step` (> 0) multiples,
  /// enabling the direct-mapped dense index for u in
  /// [0, step * kDenseCapacity). Purely an accelerator (see file
  /// comment); off-lattice lookups remain correct.
  void set_lattice_step(double step);

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Bytes the cache holds: its hash table and dense index.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot) +
           dense_.capacity() * sizeof(DenseSlot);
  }
  /// Total lookups since construction.
  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }
  /// Total misses (== distinct u values inserted) since construction.
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  /// Lookups answered by the dense lattice index (subset of hits).
  [[nodiscard]] std::uint64_t dense_hits() const noexcept {
    return dense_hits_;
  }

  /// Dense lattice index capacity, in lattice points.
  static constexpr std::size_t kDenseCapacity = 1024;

 private:
  struct Slot {
    std::uint64_t key;
    Entry entry;
  };

  struct DenseSlot {
    std::uint64_t key;
    Entry entry;
  };

  // All-ones is the negative-NaN bit pattern; broadcast_u() is never
  // NaN (transmit_probability EXPECTS u >= 0), so it cannot collide
  // with a real key. Crucially it is NOT the -0.0 pattern, which a
  // protocol could legitimately produce.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  [[nodiscard]] static std::size_t hash(std::uint64_t key) noexcept {
    // splitmix64 finalizer: adjacent lattice points differ in few
    // mantissa bits, so we need real avalanche before masking.
    std::uint64_t x = key;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }

  [[nodiscard]] const Entry& lookup_hash(double u, std::uint64_t key) {
    std::size_t idx = hash(key) & mask_;
    while (true) {
      const Slot& s = slots_[idx];
      if (s.key == key) return s.entry;
      if (s.key == kEmpty) return insert_slow(u, key);
      idx = (idx + 1) & mask_;
    }
  }

  const Entry& insert_slow(double u, std::uint64_t key);
  void grow();

#if defined(JAMELECT_WIDE_AVX2)
  /// AVX2 backend for lookup_lanes: bucket indices, stored keys, and
  /// threshold words all move through vector gathers; any group with an
  /// out-of-range or mismatched lane falls back to lookup() per lane
  /// (which also installs the entry, so the next visit gathers).
  /// Defined in slot_prob_cache_avx2.cpp, compiled with -mavx2;
  /// dispatched only when the CPU reports AVX2 and the dense index is
  /// live. Bit-identical results and counters to the scalar loop.
  void lookup_lanes_avx2(const double* us, std::size_t count, double* c_null,
                         double* c_single, double* exp_tx);
#endif

  std::uint64_t n_;
  std::size_t mask_;  ///< capacity - 1 (capacity is a power of two)
  std::size_t size_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t dense_hits_ = 0;
  double inv_step_ = 0.0;  ///< 1 / lattice step; 0 while no lattice set
  std::vector<Slot> slots_;
  std::vector<DenseSlot> dense_;  ///< empty until set_lattice_step
};

}  // namespace jamelect
