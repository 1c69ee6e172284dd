// PhaseProfiler — low-overhead interval profiler with first-class
// phase tags for the hot engines and the sweep service.
//
// Where MetricsRegistry answers "how many", the profiler answers
// "where did the wall-clock go": every nanosecond of a batch chunk or
// a service request is attributed to one of a small closed set of
// phases (rng, classify, cache_lookup, lattice_update, merge,
// steal_wait, idle on the engine side; admission, queue_wait,
// cache_probe, compute, serialize, respond on the service side).
//
// Same deal as the metrics layer (obs/metrics.hpp):
//  * per-thread slabs of relaxed atomics — writers never contend;
//  * compiled out entirely in Release builds unless -DJAMELECT_OBS=ON
//    (kObsCompiledIn), one predictable enabled() branch otherwise;
//  * disabled by default at runtime — opt in with set_enabled(true) or
//    the JAMELECT_OBS_PROF environment variable (any non-empty value
//    other than "0" enables the global profiler at first use).
//
// Hot loops do NOT write atomics per sample: they batch into a local
// PhaseAccumulator (plain int64 array, one clock read per section
// boundary) and flush once per chunk. The profiler never consumes
// randomness and never branches on results, so trial outcomes are
// bit-identical with profiling on or off.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "support/thread_pool.hpp"

namespace jamelect::obs {

class SpanStore;

/// Closed phase vocabulary. Engine phases attribute slot-processing
/// time; service phases attribute request lifetime. `classify` on the
/// fused aggregate path includes the RNG advance (the kernels fuse
/// draw + classification into one pass) under every policy, as do the
/// hybrid lanes' category roles; only the hybrid Bernoulli roles draw
/// in a pass of their own, timed as `rng`.
enum class Phase : std::uint8_t {
  kRng,
  kClassify,
  kCacheLookup,
  kLatticeUpdate,
  kMerge,
  kStealWait,
  kIdle,
  kAdmission,
  kQueueWait,
  kCacheProbe,
  kCompute,
  kSerialize,
  kRespond,
};
inline constexpr std::size_t kPhaseCount = 13;

[[nodiscard]] const char* phase_name(Phase phase) noexcept;

/// Event counters that ride along with phase timings, so a profile
/// carries its own denominators (cache hit rate, slots per chunk).
enum class ProfCounter : std::uint8_t {
  kCacheLookups,
  kCacheHits,
  kChunks,
  kTrials,
  kSlots,
};
inline constexpr std::size_t kProfCounterCount = 5;

[[nodiscard]] const char* prof_counter_name(ProfCounter counter) noexcept;

/// Steady-clock nanoseconds (the profiler's time base).
[[nodiscard]] inline std::int64_t prof_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Totals over every thread that ever wrote.
struct ProfSnapshot {
  std::array<std::int64_t, kPhaseCount> ns{};
  std::array<std::int64_t, kPhaseCount> calls{};
  std::array<std::int64_t, kProfCounterCount> counters{};
};

class PhaseProfiler {
 public:
  PhaseProfiler();
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// The process-wide profiler (JAMELECT_OBS_PROF consulted once, at
  /// first use).
  [[nodiscard]] static PhaseProfiler& global();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Adds `ns` (and `calls` section entries) to a phase on the calling
  /// thread's slab. Lock-free; relaxed atomics. Not gated — callers
  /// gate themselves (PhaseAccumulator/ProfScope do).
  void record(Phase phase, std::int64_t ns, std::int64_t calls = 1) noexcept;
  void count(ProfCounter counter, std::int64_t delta) noexcept;

  /// Sums every per-thread slab. Safe concurrent with writers.
  [[nodiscard]] ProfSnapshot snapshot() const;

  /// Zeroes every slab. Caller must ensure no concurrent writers.
  void reset() noexcept;

 private:
  struct Slab {
    std::array<std::atomic<std::int64_t>, kPhaseCount> ns{};
    std::array<std::atomic<std::int64_t>, kPhaseCount> calls{};
    std::array<std::atomic<std::int64_t>, kProfCounterCount> counters{};
  };

  [[nodiscard]] Slab& local_slab();

  /// Process-unique id keying the thread-local slab cache (same
  /// rationale as MetricsRegistry::uid_).
  std::uint64_t uid_;
  mutable std::mutex mutex_;  ///< guards slabs_ growth
  std::vector<std::unique_ptr<Slab>> slabs_;
  std::atomic<bool> enabled_{false};
};

/// Gated one-shot adds for coarse call sites (service request phases).
inline void prof_add(Phase phase, std::int64_t ns,
                     std::int64_t calls = 1) noexcept {
  if constexpr (kObsCompiledIn) {
    auto& prof = PhaseProfiler::global();
    if (prof.enabled()) prof.record(phase, ns, calls);
  }
}
inline void prof_count(ProfCounter counter, std::int64_t delta) noexcept {
  if constexpr (kObsCompiledIn) {
    auto& prof = PhaseProfiler::global();
    if (prof.enabled()) prof.count(counter, delta);
  }
}

/// Local, non-atomic phase accumulator for hot loops: captures the
/// enabled bit once at construction (so a whole chunk costs one branch
/// when profiling is off), batches samples into plain int64 arrays,
/// and flushes to the global profiler once, at destruction or flush().
/// Section timing is stitched — stop() uses its own clock read as the
/// next start mark — so back-to-back sections cost one clock read per
/// boundary, not two.
class PhaseAccumulator {
 public:
  PhaseAccumulator() noexcept {
    if constexpr (kObsCompiledIn) {
      prof_ = &PhaseProfiler::global();
      on_ = prof_->enabled();
    }
  }
  /// Test seam: accumulate into a specific profiler (still honours its
  /// enabled bit).
  explicit PhaseAccumulator(PhaseProfiler& prof) noexcept {
    if constexpr (kObsCompiledIn) {
      prof_ = &prof;
      on_ = prof.enabled();
    }
  }
  PhaseAccumulator(const PhaseAccumulator&) = delete;
  PhaseAccumulator& operator=(const PhaseAccumulator&) = delete;
  ~PhaseAccumulator() { flush(); }

  [[nodiscard]] bool on() const noexcept { return on_; }

  void start() noexcept {
    if (on_) mark_ = prof_now_ns();
  }
  void stop(Phase phase) noexcept {
    if (!on_) return;
    const std::int64_t t = prof_now_ns();
    const auto i = static_cast<std::size_t>(phase);
    ns_[i] += t - mark_;
    ++calls_[i];
    mark_ = t;  // stitch: the next section starts here
  }
  void add(Phase phase, std::int64_t ns, std::int64_t calls = 1) noexcept {
    if (!on_) return;
    const auto i = static_cast<std::size_t>(phase);
    ns_[i] += ns;
    calls_[i] += calls;
  }
  void count(ProfCounter counter, std::int64_t delta) noexcept {
    if (!on_) return;
    counters_[static_cast<std::size_t>(counter)] += delta;
  }

  void flush() noexcept {
    if (!on_) return;
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      if (calls_[i] == 0 && ns_[i] == 0) continue;
      prof_->record(static_cast<Phase>(i), ns_[i], calls_[i]);
      ns_[i] = 0;
      calls_[i] = 0;
    }
    for (std::size_t i = 0; i < kProfCounterCount; ++i) {
      if (counters_[i] == 0) continue;
      prof_->count(static_cast<ProfCounter>(i), counters_[i]);
      counters_[i] = 0;
    }
  }

 private:
  PhaseProfiler* prof_ = nullptr;
  bool on_ = false;
  std::int64_t mark_ = 0;
  std::array<std::int64_t, kPhaseCount> ns_{};
  std::array<std::int64_t, kPhaseCount> calls_{};
  std::array<std::int64_t, kProfCounterCount> counters_{};
};

/// RAII scope for coarse phases (one record per scope).
class ProfScope {
 public:
  explicit ProfScope(Phase phase) noexcept : phase_(phase) {
    if constexpr (kObsCompiledIn) {
      auto& prof = PhaseProfiler::global();
      if (prof.enabled()) {
        prof_ = &prof;
        start_ = prof_now_ns();
      }
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;
  ~ProfScope() {
    if (prof_ != nullptr) prof_->record(phase_, prof_now_ns() - start_);
  }

 private:
  Phase phase_;
  PhaseProfiler* prof_ = nullptr;
  std::int64_t start_ = 0;
};

/// The pool observer: feeds scheduling phases into the global profiler
/// (worker cv waits → `idle`, the caller's completion-barrier wait →
/// `steal_wait`) and, given a span store, records each dispatched task
/// as a `pool_task` span, so one attachment yields both the profile and
/// the pool spans.
class PoolProfObserver final : public PoolTaskObserver {
 public:
  explicit PoolProfObserver(SpanStore* spans = nullptr) noexcept
      : spans_(spans) {}

  void on_task_start(std::size_t worker_slot) noexcept override;
  void on_task_end(std::size_t worker_slot) noexcept override;
  void on_worker_idle(std::size_t worker_slot,
                      std::int64_t wait_ns) noexcept override;
  void on_caller_wait(std::int64_t wait_ns) noexcept override;

 private:
  SpanStore* spans_;
};

}  // namespace jamelect::obs
