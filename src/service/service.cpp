#include "service/service.hpp"

#include <exception>
#include <utility>

#include "sim/batch.hpp"
#include "support/shutdown.hpp"

namespace jamelect::service {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

const char* job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

SweepService::SweepService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_dir, config_.cache_max_entries,
             config_.cache_max_bytes),
      start_(Clock::now()) {
  if (config_.workers == 0) config_.workers = 1;
  auto& reg = obs::MetricsRegistry::global();
  m_requests_ = reg.counter("svc.requests");
  m_hits_ = reg.counter("svc.cache_hits");
  m_misses_ = reg.counter("svc.cache_misses");
  m_coalesced_ = reg.counter("svc.coalesced");
  m_rejected_ = reg.counter("svc.rejected");
  m_invalid_ = reg.counter("svc.invalid");
  m_completed_ = reg.counter("svc.completed");
  m_failed_ = reg.counter("svc.failed");
  m_queue_depth_ = reg.gauge("svc.queue_depth");
  m_latency_us_ = reg.histogram("svc.latency_us");
  m_compute_us_ = reg.histogram("svc.compute_us");
  m_hit_latency_us_ = reg.histogram("svc.hit_latency_us");
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SweepService::~SweepService() { stop(); }

std::int64_t SweepService::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               start_)
      .count();
}

JobStatus SweepService::snapshot(const Job& job) const {
  JobStatus s;
  s.id = job.id;
  s.key = job.key;
  s.state = job.state;
  s.error = job.error;
  s.result_json = job.result_json;
  s.submitted_us = job.submitted_us;
  s.started_us = job.started_us;
  s.finished_us = job.finished_us;
  s.waiters = job.waiters;
  s.trace = job.trace;
  s.timing = job.timing;
  return s;
}

void SweepService::emit_phase(const char* span_name, obs::Phase phase,
                              std::int64_t dur_us, obs::TraceId trace) {
  if (dur_us < 0) dur_us = 0;
  obs::prof_add(phase, dur_us * 1000);
  // "Ends now" stamping: the interval is stamped against the store's
  // epoch at the moment the phase ends.
  if (config_.spans != nullptr) {
    const std::int64_t end = config_.spans->now_us();
    config_.spans->record(span_name, obs::phase_name(phase), end - dur_us,
                          dur_us, trace);
  }
}

void SweepService::note_respond(obs::TraceId trace, std::int64_t dur_us) {
  tot_respond_us_.fetch_add(dur_us, std::memory_order_relaxed);
  emit_phase("svc.respond", obs::Phase::kRespond, dur_us, trace);
}

obs::TraceId SweepService::last_trace() const {
  const std::lock_guard<std::mutex> lock(last_trace_mutex_);
  return last_trace_;
}

SweepService::TimingTotals SweepService::timing_totals() const noexcept {
  TimingTotals t;
  t.admission_us = tot_admission_us_.load(std::memory_order_relaxed);
  t.cache_probe_us = tot_cache_probe_us_.load(std::memory_order_relaxed);
  t.queue_us = tot_queue_us_.load(std::memory_order_relaxed);
  t.compute_us = tot_compute_us_.load(std::memory_order_relaxed);
  t.serialize_us = tot_serialize_us_.load(std::memory_order_relaxed);
  t.respond_us = tot_respond_us_.load(std::memory_order_relaxed);
  return t;
}

SweepService::Submit SweepService::submit(const SweepRequest& request,
                                          obs::TraceId trace) {
  auto& reg = obs::MetricsRegistry::global();
  requests_.fetch_add(1, std::memory_order_relaxed);
  reg.add(m_requests_, 1);
  const std::int64_t t0 = now_us();
  if (trace.valid()) {
    const std::lock_guard<std::mutex> lock(last_trace_mutex_);
    last_trace_ = trace;
  }

  Submit out;
  out.trace = trace;
  std::string why;
  const bool valid = request.validate(config_.limits, &why);
  out.timing.admission_us = now_us() - t0;
  tot_admission_us_.fetch_add(out.timing.admission_us,
                              std::memory_order_relaxed);
  emit_phase("svc.admission", obs::Phase::kAdmission, out.timing.admission_us,
             trace);
  if (!valid) {
    reg.add(m_invalid_, 1);
    out.outcome = Submit::Outcome::kInvalid;
    out.error = why;
    return out;
  }
  out.key = request.cache_key();

  // Fast path: finished result already memoized (memory or disk).
  const std::int64_t probe0 = now_us();
  auto cached = cache_.lookup(out.key);
  out.timing.cache_probe_us = now_us() - probe0;
  tot_cache_probe_us_.fetch_add(out.timing.cache_probe_us,
                                std::memory_order_relaxed);
  emit_phase("svc.cache_probe", obs::Phase::kCacheProbe,
             out.timing.cache_probe_us, trace);
  if (cached) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    reg.add(m_hits_, 1);
    const std::int64_t latency = now_us() - t0;
    reg.observe(m_hit_latency_us_, latency);
    reg.observe(m_latency_us_, latency);
    out.outcome = Submit::Outcome::kCached;
    out.result_json = std::move(*cached);
    return out;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    reg.add(m_rejected_, 1);
    out.outcome = Submit::Outcome::kRejected;
    out.error = "service stopping";
    return out;
  }
  // Coalesce: an identical job is already queued or running.
  if (const auto it = inflight_.find(out.key); it != inflight_.end()) {
    it->second->waiters += 1;
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    reg.add(m_coalesced_, 1);
    out.outcome = Submit::Outcome::kCoalesced;
    out.id = it->second->id;
    return out;
  }
  // Backpressure: bounded admission queue.
  if (queue_.size() >= config_.max_queue) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    reg.add(m_rejected_, 1);
    out.outcome = Submit::Outcome::kRejected;
    out.error = "queue full (depth " + std::to_string(queue_.size()) + ")";
    return out;
  }

  auto job = std::make_shared<Job>();
  // Built char-by-char: GCC 12's -O3 -Wrestrict false-fires (PR105329)
  // on every char*-source assign/insert path here.
  std::string id = std::to_string(next_id_++);
  id.insert(id.begin(), 'j');
  job->id = std::move(id);
  job->key = out.key;
  job->request = request;
  job->submitted_us = t0;
  job->trace = trace;
  job->timing.admission_us = out.timing.admission_us;
  job->timing.cache_probe_us = out.timing.cache_probe_us;
  jobs_.emplace(job->id, job);
  inflight_.emplace(job->key, job);
  queue_.push_back(job);
  reg.set(m_queue_depth_, static_cast<double>(queue_.size()));
  out.outcome = Submit::Outcome::kAccepted;
  out.id = job->id;
  lock.unlock();
  queue_cv_.notify_one();
  return out;
}

void SweepService::finish_job(const std::shared_ptr<Job>& job,
                              JobState state) {
  auto& reg = obs::MetricsRegistry::global();
  job->state = state;
  job->finished_us = now_us();
  if (const auto it = inflight_.find(job->key);
      it != inflight_.end() && it->second == job) {
    inflight_.erase(it);
  }
  terminal_order_.push_back(job->id);
  evict_history_locked();
  reg.add(state == JobState::kDone ? m_completed_ : m_failed_, 1);
  if (job->submitted_us >= 0) {
    reg.observe(m_latency_us_, job->finished_us - job->submitted_us);
  }
  done_cv_.notify_all();
}

void SweepService::evict_history_locked() {
  while (terminal_order_.size() > config_.max_job_history) {
    jobs_.erase(terminal_order_.front());
    terminal_order_.pop_front();
  }
}

void SweepService::worker_loop() {
  auto& reg = obs::MetricsRegistry::global();
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    auto job = queue_.front();
    queue_.pop_front();
    reg.set(m_queue_depth_, static_cast<double>(queue_.size()));
    job->state = JobState::kRunning;
    job->started_us = now_us();
    job->timing.queue_us = job->started_us - job->submitted_us;
    lock.unlock();
    tot_queue_us_.fetch_add(job->timing.queue_us, std::memory_order_relaxed);
    emit_phase("svc.queue_wait", obs::Phase::kQueueWait, job->timing.queue_us,
               job->trace);

    // The request lineage rides the worker thread: MC chunk spans and
    // this job's phase spans all carry the same trace id.
    const obs::ScopedTrace scoped(job->trace);

    // Second chance: another process may have populated the disk tier
    // while this job sat in the queue. This job's phase times stay local
    // until the lock is retaken: wait() snapshots the job under it.
    std::string result;
    std::string error;
    bool ok = false;
    RequestTiming timing;
    const std::int64_t probe0 = now_us();
    auto cached = cache_.lookup(job->key);
    {
      const std::int64_t probe_us = now_us() - probe0;
      timing.cache_probe_us = probe_us;
      tot_cache_probe_us_.fetch_add(probe_us, std::memory_order_relaxed);
      emit_phase("svc.cache_probe", obs::Phase::kCacheProbe, probe_us,
                 job->trace);
    }
    if (cached) {
      result = std::move(*cached);
      ok = true;
    } else {
      const std::int64_t compute0 = now_us();
      try {
        const McResult mc =
            run_sweep(job->request, config_.runner, job->trace);
        timing.compute_us = now_us() - compute0;
        if (mc.interrupted) {
          error = "interrupted by shutdown after " +
                  std::to_string(mc.trials) + " trials";
        } else {
          const std::int64_t ser0 = now_us();
          result = mc_result_to_json(mc).dump();
          cache_.store(job->key, job->request.to_json().dump(), result);
          timing.serialize_us = now_us() - ser0;
          ok = true;
        }
      } catch (const std::exception& e) {
        timing.compute_us = now_us() - compute0;
        error = e.what();
      }
      tot_compute_us_.fetch_add(timing.compute_us, std::memory_order_relaxed);
      emit_phase("svc.compute", obs::Phase::kCompute, timing.compute_us,
                 job->trace);
      if (timing.serialize_us > 0) {
        tot_serialize_us_.fetch_add(timing.serialize_us,
                                    std::memory_order_relaxed);
        emit_phase("svc.serialize", obs::Phase::kSerialize,
                   timing.serialize_us, job->trace);
      }
      if (ok) {
        computed_.fetch_add(1, std::memory_order_relaxed);
        reg.add(m_misses_, 1);
        reg.observe(m_compute_us_, now_us() - job->started_us);
      }
    }

    lock.lock();
    job->timing.cache_probe_us += timing.cache_probe_us;
    job->timing.compute_us = timing.compute_us;
    job->timing.serialize_us = timing.serialize_us;
    job->result_json = std::move(result);
    job->error = std::move(error);
    finish_job(job, ok ? JobState::kDone : JobState::kFailed);
  }
}

std::optional<JobStatus> SweepService::status(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return snapshot(*it->second);
}

std::optional<JobStatus> SweepService::wait(const std::string& id,
                                            std::int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const auto job = it->second;  // keep alive across history eviction
  const auto terminal = [&job] {
    return job->state == JobState::kDone || job->state == JobState::kFailed;
  };
  if (timeout_ms < 0) {
    done_cv_.wait(lock, terminal);
  } else {
    done_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), terminal);
  }
  return snapshot(*job);
}

void SweepService::stop() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_ && workers_.empty()) return;
  stopping_ = true;
  // Fail everything still queued; running jobs drain in their workers.
  while (!queue_.empty()) {
    auto job = queue_.front();
    queue_.pop_front();
    job->error = "shutdown before start";
    finish_job(job, JobState::kFailed);
  }
  obs::MetricsRegistry::global().set(m_queue_depth_, 0.0);
  std::vector<std::thread> workers = std::move(workers_);
  workers_.clear();
  lock.unlock();
  queue_cv_.notify_all();
  for (std::thread& w : workers) w.join();
  done_cv_.notify_all();
  // Every accepted result is on disk before stop() returns, so a
  // manifest written next finds the cache directory complete.
  cache_.drain();
}

std::size_t SweepService::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

Json SweepService::metrics_json() const {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().aggregate();
  Json counters;
  counters.set_object();
  for (const auto& [name, value] : snap.counters) {
    counters.set(name, value);
  }
  Json gauges;
  gauges.set_object();
  for (const auto& [name, value] : snap.gauges) {
    gauges.set(name, value);
  }
  // The memo readings are kept outside the registry too, so builds
  // with the engine metrics compiled out still report them.
  const MemoStats memo = memo_stats();
  gauges.set("engine.memo.bytes", static_cast<double>(memo.peak_bytes));
  counters.set("engine.memo.evictions",
               static_cast<std::int64_t>(memo.evictions));
  Json histograms;
  histograms.set_object();
  for (const auto& [name, h] : snap.histograms) {
    Json entry;
    entry.set_object();
    entry.set("count", h.count);
    entry.set("sum", h.sum);
    entry.set("mean",
              h.count > 0
                  ? static_cast<double>(h.sum) / static_cast<double>(h.count)
                  : 0.0);
    entry.set("p50", histogram_quantile(h, 0.50));
    entry.set("p99", histogram_quantile(h, 0.99));
    entry.set("max", h.max);
    histograms.set(name, std::move(entry));
  }
  Json out;
  out.set_object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  out.set("queue_depth", static_cast<std::int64_t>(queue_depth()));
  out.set("uptime_us", now_us());
  return out;
}

}  // namespace jamelect::service
