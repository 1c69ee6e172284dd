// Fixed-size thread pool with dynamically-chunked parallel_for and
// parallel_reduce.
//
// Monte-Carlo trials are embarrassingly parallel; each trial derives its
// randomness from (seed, trial index), so work distribution never
// affects results (HPC guide: explicit, deterministic parallelism).
// The dispatch layer is allocation-light on purpose: a parallel call
// publishes ONE stack-resident job object and enqueues plain
// function-pointer tasks — no per-chunk std::function allocations —
// and workers pull chunks off a shared atomic cursor, so load imbalance
// between trials self-corrects. The calling thread participates as an
// extra worker instead of blocking idle.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace jamelect {

/// Observer for pool task execution — the hook the telemetry layer
/// (obs::PoolProfObserver, obs/prof.hpp) uses to time dispatched tasks.
/// Callbacks run on the executing thread, bracketing one task (= one
/// worker slot's chunk loop of a parallel call); they must be noexcept
/// and cheap.
class PoolTaskObserver {
 public:
  virtual ~PoolTaskObserver() = default;
  virtual void on_task_start(std::size_t worker_slot) noexcept = 0;
  virtual void on_task_end(std::size_t worker_slot) noexcept = 0;
  /// A worker slept `wait_ns` on the task queue before receiving the
  /// task it is about to run. Only measured while an observer is
  /// attached when the wait begins (an observer attached mid-sleep
  /// misses that one wait). Default: ignored.
  virtual void on_worker_idle(std::size_t /*worker_slot*/,
                              std::int64_t /*wait_ns*/) noexcept {}
  /// The calling thread of a parallel call exhausted its own chunks and
  /// blocked `wait_ns` on the completion barrier waiting for straggler
  /// workers — the direct measure of chunk imbalance. Default: ignored.
  virtual void on_caller_wait(std::int64_t /*wait_ns*/) noexcept {}
};

/// A joining, exception-propagating thread pool.
class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Attaches (or detaches, with nullptr) a task observer. The observer
  /// must outlive every parallel call that runs while it is attached;
  /// attach/detach between parallel calls, not during one. Once such a
  /// call has returned and the observer is detached, no worker calls
  /// it again, so it may then be destroyed.
  void set_task_observer(PoolTaskObserver* observer) noexcept {
    task_observer_.store(observer, std::memory_order_release);
  }
  [[nodiscard]] PoolTaskObserver* task_observer() const noexcept {
    return task_observer_.load(std::memory_order_acquire);
  }

  /// Runs body(i) for i in [0, count), distributing chunks dynamically
  /// across the pool (plus the calling thread). Blocks until all
  /// iterations finish. The first exception thrown by any iteration is
  /// rethrown on the caller; iterations in other chunks still run.
  template <class F>
  void parallel_for(std::size_t count, const F& body) {
    struct Job final : ParallelJob {
      const F* f = nullptr;
      void run(std::size_t) override {
        for (;;) {
          const std::size_t begin =
              next.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= count) return;
          const std::size_t end = std::min(count, begin + chunk);
          for (std::size_t i = begin; i < end; ++i) (*f)(i);
        }
      }
    } job;
    job.f = &body;
    execute(job, count);
  }

  /// Parallel fold: runs body(acc, i) for i in [0, count) where each
  /// participating worker owns a private accumulator seeded from a copy
  /// of `identity`, then merges the per-worker accumulators into
  /// `identity` in worker-slot order via merge(into, std::move(from))
  /// and returns the result. `identity` must therefore be a true
  /// identity element of `merge`. The fold is deterministic whenever
  /// `merge`/`body` are exact and commutative (integer counters, count
  /// maps, multisets that are later sorted); which trials land in which
  /// worker's accumulator is scheduling-dependent.
  template <class Acc, class Body, class Merge>
  [[nodiscard]] Acc parallel_reduce(std::size_t count, Acc identity,
                                    const Body& body, const Merge& merge) {
    if (count == 0) return identity;
    struct Job final : ParallelJob {
      const Body* f = nullptr;
      std::vector<Acc>* accs = nullptr;
      void run(std::size_t slot) override {
        Acc& acc = (*accs)[slot];
        for (;;) {
          const std::size_t begin =
              next.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= count) return;
          const std::size_t end = std::min(count, begin + chunk);
          for (std::size_t i = begin; i < end; ++i) (*f)(acc, i);
        }
      }
    } job;
    const std::size_t slots = std::min(count, size() + 1);
    std::vector<Acc> accs(slots, identity);
    job.f = &body;
    job.accs = &accs;
    execute(job, count);
    for (Acc& acc : accs) merge(identity, std::move(acc));
    return identity;
  }

 private:
  /// One parallel invocation: lives on the caller's stack for its whole
  /// duration; tasks reference it by plain pointer.
  struct ParallelJob {
    std::size_t count = 0;
    std::size_t chunk = 1;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> pending{0};  ///< enqueued tasks not yet done
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::exception_ptr error;
    std::mutex error_mutex;

    virtual ~ParallelJob() = default;
    /// Pulls chunks off `next` until exhausted; `slot` identifies the
    /// participating worker (for per-worker accumulators).
    virtual void run(std::size_t slot) = 0;
  };

  /// A queued unit of work: one worker slot of a job, no allocation
  /// beyond the queue node.
  struct Task {
    ParallelJob* job = nullptr;
    std::size_t slot = 0;
  };

  /// Sizes the job, fans it out over the pool, participates on the
  /// calling thread, waits, and rethrows the first recorded error.
  void execute(ParallelJob& job, std::size_t count);

  /// What every queued task runs: the job's chunk loop for one worker
  /// slot, bracketed by `obs` (may be null), with error capture and
  /// completion signalling. The observer's last call comes before the
  /// job's pending count drops.
  static void run_job_slot(ParallelJob& job, std::size_t slot,
                           PoolTaskObserver* obs);

  void enqueue(Task task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::atomic<PoolTaskObserver*> task_observer_{nullptr};
};

/// Convenience: a process-wide pool for benches/examples. Lazily
/// constructed; JAMELECT_THREADS (if set to a positive count) is the
/// number of workers, else max(1, hardware concurrency - 1) workers, so
/// the calling thread, which joins every parallel call, brings the
/// width to the hardware concurrency instead of one past it.
[[nodiscard]] ThreadPool& global_pool();

}  // namespace jamelect
