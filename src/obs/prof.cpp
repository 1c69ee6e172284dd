#include "obs/prof.hpp"

#include <cstdlib>
#include <utility>

#include "obs/span.hpp"

namespace jamelect::obs {

const char* phase_name(Phase phase) noexcept {
  switch (phase) {
    case Phase::kRng: return "rng";
    case Phase::kClassify: return "classify";
    case Phase::kCacheLookup: return "cache_lookup";
    case Phase::kLatticeUpdate: return "lattice_update";
    case Phase::kMerge: return "merge";
    case Phase::kStealWait: return "steal_wait";
    case Phase::kIdle: return "idle";
    case Phase::kAdmission: return "admission";
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kCacheProbe: return "cache_probe";
    case Phase::kCompute: return "compute";
    case Phase::kSerialize: return "serialize";
    case Phase::kRespond: return "respond";
  }
  return "unknown";
}

const char* prof_counter_name(ProfCounter counter) noexcept {
  switch (counter) {
    case ProfCounter::kCacheLookups: return "cache_lookups";
    case ProfCounter::kCacheHits: return "cache_hits";
    case ProfCounter::kChunks: return "chunks";
    case ProfCounter::kTrials: return "trials";
    case ProfCounter::kSlots: return "slots";
  }
  return "unknown";
}

PhaseProfiler::PhaseProfiler() {
  static std::atomic<std::uint64_t> next_uid{1};
  uid_ = next_uid.fetch_add(1, std::memory_order_relaxed);
}

PhaseProfiler& PhaseProfiler::global() {
  static PhaseProfiler* profiler = [] {
    auto* p = new PhaseProfiler();  // leaked: outlives late-exiting threads
    if (const char* env = std::getenv("JAMELECT_OBS_PROF");
        env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0')) {
      p->set_enabled(true);
    }
    return p;
  }();
  return *profiler;
}

PhaseProfiler::Slab& PhaseProfiler::local_slab() {
  // Same uid-keyed cache as MetricsRegistry::local_slab: the profiler
  // owns the slab, the thread-local only caches the lookup.
  thread_local std::vector<std::pair<std::uint64_t, Slab*>> cache;
  for (const auto& [uid, slab] : cache) {
    if (uid == uid_) return *slab;
  }
  auto owned = std::make_unique<Slab>();
  Slab* raw = owned.get();
  {
    std::lock_guard lock(mutex_);
    slabs_.push_back(std::move(owned));
  }
  cache.emplace_back(uid_, raw);
  return *raw;
}

void PhaseProfiler::record(Phase phase, std::int64_t ns,
                           std::int64_t calls) noexcept {
  Slab& slab = local_slab();
  const auto i = static_cast<std::size_t>(phase);
  slab.ns[i].fetch_add(ns, std::memory_order_relaxed);
  slab.calls[i].fetch_add(calls, std::memory_order_relaxed);
}

void PhaseProfiler::count(ProfCounter counter, std::int64_t delta) noexcept {
  local_slab()
      .counters[static_cast<std::size_t>(counter)]
      .fetch_add(delta, std::memory_order_relaxed);
}

ProfSnapshot PhaseProfiler::snapshot() const {
  std::lock_guard lock(mutex_);
  ProfSnapshot snap;
  for (const auto& slab : slabs_) {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      snap.ns[i] += slab->ns[i].load(std::memory_order_relaxed);
      snap.calls[i] += slab->calls[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kProfCounterCount; ++i) {
      snap.counters[i] += slab->counters[i].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

void PhaseProfiler::reset() noexcept {
  std::lock_guard lock(mutex_);
  for (const auto& slab : slabs_) {
    for (auto& v : slab->ns) v.store(0, std::memory_order_relaxed);
    for (auto& v : slab->calls) v.store(0, std::memory_order_relaxed);
    for (auto& v : slab->counters) v.store(0, std::memory_order_relaxed);
  }
}

namespace {

/// Start of the pool task running on this thread; pool tasks never nest
/// on one thread, so one slot suffices.
thread_local std::int64_t t_task_start_us = 0;

}  // namespace

void PoolProfObserver::on_task_start(std::size_t /*worker_slot*/) noexcept {
  if (spans_ != nullptr) t_task_start_us = spans_->now_us();
}

void PoolProfObserver::on_task_end(std::size_t /*worker_slot*/) noexcept {
  if (spans_ == nullptr) return;
  spans_->record("pool_task", "", t_task_start_us,
                 spans_->now_us() - t_task_start_us);
}

void PoolProfObserver::on_worker_idle(std::size_t /*worker_slot*/,
                                      std::int64_t wait_ns) noexcept {
  prof_add(Phase::kIdle, wait_ns);
}

void PoolProfObserver::on_caller_wait(std::int64_t wait_ns) noexcept {
  prof_add(Phase::kStealWait, wait_ns);
}

}  // namespace jamelect::obs
