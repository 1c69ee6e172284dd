// SweepService — the daemon's engine room: a bounded admission queue,
// a worker pool running sweeps on the Monte-Carlo engines, a
// manifest-keyed result cache, and per-request metrics.
//
// Request lifecycle (docs/SERVICE.md):
//
//   submit ──> cache hit ────────────────────────────> kCached (result)
//          ──> identical request in flight ──────────> kCoalesced (id)
//          ──> queue full ───────────────────────────> kRejected (429)
//          ──> enqueued ─────────────────────────────> kAccepted (id)
//   wait(id) blocks until the job is kDone / kFailed.
//
// Coalescing: at most one job per cache key is ever queued or running;
// a second identical request attaches to the first job instead of
// recomputing (dogpile protection). Backpressure: the queue holds at
// most ServiceConfig::max_queue jobs; beyond that submit() rejects
// immediately — the transport maps that to HTTP 429 / a line-protocol
// error — so a traffic spike degrades into fast rejections instead of
// unbounded memory growth.
//
// Shutdown: stop() fails queued jobs, lets RUNNING jobs drain (the
// Monte-Carlo drivers also poll support/shutdown.hpp, so a SIGTERM
// shortens even an in-flight sweep to its next chunk boundary), joins
// the workers, and wakes every waiter. Interrupted sweeps are never
// cached.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/span.hpp"
#include "service/json.hpp"
#include "service/result_cache.hpp"
#include "service/sweep_request.hpp"
#include "service/sweep_runner.hpp"

namespace jamelect::service {

struct ServiceConfig {
  /// Sweep worker threads (each runs one job at a time; the job itself
  /// may fan trials out on the global ThreadPool).
  std::size_t workers = 2;
  /// Queued-but-not-running cap; beyond it submit() rejects (429).
  std::size_t max_queue = 64;
  /// Result-cache disk tier directory; "" = memory-only.
  std::string cache_dir;
  /// Memory-tier bounds for the result cache (LRU eviction; 0 =
  /// unbounded). With a disk tier configured, evicted keys are still
  /// served — reloaded from disk on their next lookup.
  std::size_t cache_max_entries = 0;
  std::size_t cache_max_bytes = 0;
  /// Terminal job records kept for GET /status; oldest evicted beyond.
  std::size_t max_job_history = 4096;
  SweepLimits limits;
  RunnerConfig runner;
  /// Optional span store (obs/span.hpp): request phases (admission,
  /// cache_probe, queue_wait, compute, serialize, respond) are recorded
  /// as spans tagged with the request's trace id. MC chunk spans join
  /// them only when `runner.spans` points at a store too. Must outlive
  /// the service.
  obs::SpanStore* spans = nullptr;
};

/// Per-request wall-clock breakdown (steady-clock microseconds),
/// echoed in the response envelope and rolled up into the daemon's
/// run manifest. Zero means "phase not reached" (e.g. compute on a
/// cache hit).
struct RequestTiming {
  std::int64_t admission_us = 0;    ///< validation + admission control
  std::int64_t cache_probe_us = 0;  ///< result-cache lookup(s)
  std::int64_t queue_us = 0;        ///< enqueue -> worker pickup
  std::int64_t compute_us = 0;      ///< run_sweep (MC engines)
  std::int64_t serialize_us = 0;    ///< result JSON + cache store
};

enum class JobState : std::uint8_t { kQueued, kRunning, kDone, kFailed };
[[nodiscard]] const char* job_state_name(JobState state) noexcept;

/// Point-in-time copy of one job's record.
struct JobStatus {
  std::string id;
  std::string key;
  JobState state = JobState::kQueued;
  std::string error;        ///< kFailed only
  std::string result_json;  ///< kDone only (canonical bytes)
  // Steady-clock microseconds since service construction; -1 = not yet.
  std::int64_t submitted_us = -1;
  std::int64_t started_us = -1;
  std::int64_t finished_us = -1;
  /// Requests coalesced onto this job (besides the submitting one).
  std::size_t waiters = 0;
  /// Request lineage (invalid when the client sent no trace id).
  obs::TraceId trace{};
  RequestTiming timing{};
};

class SweepService {
 public:
  struct Submit {
    enum class Outcome : std::uint8_t {
      kInvalid,    ///< failed validation — transport: 400
      kCached,     ///< served from cache — result_json is the answer
      kAccepted,   ///< queued — wait(id) for the result
      kCoalesced,  ///< identical job in flight — wait(id) on it
      kRejected,   ///< queue full or service stopping — transport: 429
    };
    Outcome outcome = Outcome::kInvalid;
    std::string id;
    std::string key;
    std::string error;
    std::string result_json;  ///< kCached only
    obs::TraceId trace{};     ///< echo of the request's trace id
    RequestTiming timing{};   ///< kCached: admission + cache_probe only
  };

  explicit SweepService(ServiceConfig config);
  ~SweepService();  // stop()

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// `trace` is the client-supplied request lineage (invalid = client
  /// sent none); it tags every span this request produces and is
  /// echoed back in Submit/JobStatus.
  [[nodiscard]] Submit submit(const SweepRequest& request,
                              obs::TraceId trace = {});

  /// Snapshot of a job's record; nullopt for unknown/evicted ids.
  [[nodiscard]] std::optional<JobStatus> status(const std::string& id) const;

  /// Blocks until the job reaches kDone/kFailed, up to `timeout_ms`
  /// (< 0 = no timeout). Returns the terminal status, the current
  /// status on timeout, or nullopt for unknown ids.
  [[nodiscard]] std::optional<JobStatus> wait(const std::string& id,
                                              std::int64_t timeout_ms = -1);

  /// Drains: running jobs finish (shortened to their next chunk if a
  /// process shutdown is also in progress), queued jobs fail with
  /// "shutdown", workers join, waiters wake. Idempotent.
  void stop();

  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

  // Service-local request accounting (global MetricsRegistry mirrors
  // these for /metrics; these are exact per-instance, test-friendly).
  [[nodiscard]] std::uint64_t requests() const noexcept { return requests_; }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t computed() const noexcept { return computed_; }
  [[nodiscard]] std::uint64_t coalesced() const noexcept { return coalesced_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

  /// Counters, gauges, and latency-histogram percentiles (p50/p99 via
  /// log2 buckets) from the global MetricsRegistry, as one JSON object.
  [[nodiscard]] Json metrics_json() const;

  /// Steady-clock microseconds since construction.
  [[nodiscard]] std::int64_t now_us() const;

  /// Transport callback after the response bytes for a request went
  /// out: records the `respond` phase (profiler + span store)
  /// and rolls it into the timing totals.
  void note_respond(obs::TraceId trace, std::int64_t dur_us);

  /// Most recent request trace id seen by submit() (invalid if none
  /// yet) — surfaced in the daemon's run manifest.
  [[nodiscard]] obs::TraceId last_trace() const;

  /// Cross-request sums of each timing phase plus respond, for the
  /// manifest rollup.
  struct TimingTotals {
    std::int64_t admission_us = 0;
    std::int64_t cache_probe_us = 0;
    std::int64_t queue_us = 0;
    std::int64_t compute_us = 0;
    std::int64_t serialize_us = 0;
    std::int64_t respond_us = 0;
  };
  [[nodiscard]] TimingTotals timing_totals() const noexcept;

 private:
  struct Job {
    std::string id;
    std::string key;
    SweepRequest request;
    JobState state = JobState::kQueued;
    std::string error;
    std::string result_json;
    std::int64_t submitted_us = -1;
    std::int64_t started_us = -1;
    std::int64_t finished_us = -1;
    std::size_t waiters = 0;
    obs::TraceId trace{};
    RequestTiming timing{};
  };

  void worker_loop();
  /// Records one finished request phase: profiler time, plus a span in
  /// the span store stamped "ends now".
  void emit_phase(const char* span_name, obs::Phase phase,
                  std::int64_t dur_us, obs::TraceId trace);
  [[nodiscard]] JobStatus snapshot(const Job& job) const;
  /// Marks the job terminal and wakes waiters. Caller holds mutex_.
  void finish_job(const std::shared_ptr<Job>& job, JobState state);
  void evict_history_locked();

  ServiceConfig config_;
  ResultCache cache_;
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;  ///< workers: queue non-empty / stop
  std::condition_variable done_cv_;   ///< waiters: job reached terminal
  std::deque<std::shared_ptr<Job>> queue_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;  ///< id -> record
  std::map<std::string, std::shared_ptr<Job>> inflight_;  ///< key -> job
  std::deque<std::string> terminal_order_;  ///< history eviction FIFO
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> computed_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> rejected_{0};

  // Global-registry metric ids (registered in the constructor; direct
  // add/observe calls so service metrics exist in Release builds too).
  obs::MetricsRegistry::MetricId m_requests_, m_hits_, m_misses_,
      m_coalesced_, m_rejected_, m_invalid_, m_completed_, m_failed_;
  obs::MetricsRegistry::MetricId m_queue_depth_;
  obs::MetricsRegistry::MetricId m_latency_us_, m_compute_us_,
      m_hit_latency_us_;

  mutable std::mutex last_trace_mutex_;
  obs::TraceId last_trace_{};

  std::atomic<std::int64_t> tot_admission_us_{0};
  std::atomic<std::int64_t> tot_cache_probe_us_{0};
  std::atomic<std::int64_t> tot_queue_us_{0};
  std::atomic<std::int64_t> tot_compute_us_{0};
  std::atomic<std::int64_t> tot_serialize_us_{0};
  std::atomic<std::int64_t> tot_respond_us_{0};
};

// histogram_quantile (bucket-resolution quantiles of the log2
// histograms) lives in obs/metrics.hpp; service code uses it
// unqualified via the obs:: types' ADL.

}  // namespace jamelect::service
