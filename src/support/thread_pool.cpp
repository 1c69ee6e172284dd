#include "support/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace jamelect {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(Task task) {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;  // shutdown races are benign: job is stack-owned
    tasks_.push(task);
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    std::int64_t idle_ns = -1;
    {
      std::unique_lock lock(mutex_);
      const auto ready = [this] { return stopping_ || !tasks_.empty(); };
      // Time the queue wait only when an observer is attached as the
      // wait begins — zero clock reads on the unobserved path.
      if (!ready() &&
          task_observer_.load(std::memory_order_acquire) != nullptr) {
        const auto t0 = std::chrono::steady_clock::now();
        cv_.wait(lock, ready);
        idle_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      } else {
        cv_.wait(lock, ready);
      }
      if (stopping_ && tasks_.empty()) return;
      task = tasks_.front();
      tasks_.pop();
    }
    PoolTaskObserver* obs = task_observer_.load(std::memory_order_acquire);
    if (obs != nullptr && idle_ns >= 0) obs->on_worker_idle(task.slot, idle_ns);
    run_job_slot(*task.job, task.slot, obs);
  }
}

void ThreadPool::run_job_slot(ParallelJob& job, std::size_t slot,
                              PoolTaskObserver* obs) {
  if (obs != nullptr) obs->on_task_start(slot);
  try {
    job.run(slot);
  } catch (...) {
    std::lock_guard lock(job.error_mutex);
    if (!job.error) job.error = std::current_exception();
  }
  // The task ends before the decrement: once pending reaches 0 the
  // caller's parallel call may return, and the caller may then detach
  // and destroy the observer.
  if (obs != nullptr) obs->on_task_end(slot);
  // Decrement under the lock: the caller may destroy the job as soon as
  // it sees pending == 0, so the last touch of the job must come before
  // the caller can take the lock and look.
  std::lock_guard lock(job.done_mutex);
  if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    job.done_cv.notify_all();
  }
}

void ThreadPool::execute(ParallelJob& job, std::size_t count) {
  if (count == 0) return;
  job.count = count;
  // Helpers beyond the caller; capped so every slot sees work.
  const std::size_t helpers = std::min(count - 1, size());
  // Chunks are small enough for dynamic balancing, large enough that
  // the shared cursor is not contended.
  job.chunk = std::max<std::size_t>(1, count / ((helpers + 1) * 8));

  if (helpers == 0) {
    PoolTaskObserver* solo_obs =
        task_observer_.load(std::memory_order_acquire);
    if (solo_obs != nullptr) solo_obs->on_task_start(0);
    try {
      job.run(0);  // exceptions propagate directly
    } catch (...) {
      if (solo_obs != nullptr) solo_obs->on_task_end(0);
      throw;
    }
    if (solo_obs != nullptr) solo_obs->on_task_end(0);
    return;
  }

  job.pending.store(helpers, std::memory_order_relaxed);
  for (std::size_t h = 0; h < helpers; ++h) {
    enqueue(Task{&job, h});
  }
  // The caller takes the last slot instead of blocking idle.
  PoolTaskObserver* obs = task_observer_.load(std::memory_order_acquire);
  if (obs != nullptr) obs->on_task_start(helpers);
  try {
    job.run(helpers);
  } catch (...) {
    std::lock_guard lock(job.error_mutex);
    if (!job.error) job.error = std::current_exception();
  }
  if (obs != nullptr) obs->on_task_end(helpers);
  const auto done = [&job] {
    return job.pending.load(std::memory_order_acquire) == 0;
  };
  std::unique_lock lock(job.done_mutex);
  if (obs != nullptr && !done()) {
    // The caller ran dry while workers still hold chunks: this wait is
    // the parallel call's imbalance cost.
    const auto t0 = std::chrono::steady_clock::now();
    job.done_cv.wait(lock, done);
    obs->on_caller_wait(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
  } else {
    job.done_cv.wait(lock, done);
  }
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& global_pool() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("JAMELECT_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    // The caller joins the workers in every parallel call.
    const std::size_t hw = std::thread::hardware_concurrency();
    return std::max<std::size_t>(1, hw > 0 ? hw - 1 : 0);
  }());
  return pool;
}

}  // namespace jamelect
