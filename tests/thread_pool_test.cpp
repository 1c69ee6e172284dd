#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace jamelect {
namespace {

TEST(ThreadPool, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleIteration) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, DeterministicResultIndependentOfThreads) {
  const auto compute = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(1000);
    pool.parallel_for(out.size(), [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    return std::accumulate(out.begin(), out.end(), 0.0);
  };
  EXPECT_DOUBLE_EQ(compute(1), compute(7));
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 57) throw std::runtime_error("bang");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(10, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, BackToBackJobsNeverTouchAFinishedJob) {
  // Each parallel call's job lives on the caller's stack, so the worker
  // that finishes the last helper slot must be done with the job before
  // the caller can see it complete; otherwise it notifies a condition
  // variable the next call is already reconstructing in the same stack
  // slot. Only the thread sanitizer (CI's TSAN job) sees that race.
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 20000; ++round) {
    pool.parallel_for(4, [&total](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 80000u);
}

TEST(ThreadPool, ObserverMayDieWhenParallelForReturns) {
  // A worker's last call into the observer must come before the
  // parallel call can return: the caller then detaches and deletes it.
  // The address sanitizer (CI's ASAN job) sees a late on_task_end as a
  // heap use after free; unsanitized, a task still open when the call
  // returns shows in the count.
  struct CountingObserver final : PoolTaskObserver {
    std::atomic<std::int64_t> open{0};
    void on_task_start(std::size_t) noexcept override { ++open; }
    void on_task_end(std::size_t) noexcept override { --open; }
  };
  ThreadPool pool(3);
  for (int round = 0; round < 2000; ++round) {
    auto* observer = new CountingObserver();
    pool.set_task_observer(observer);
    pool.parallel_for(8, [](std::size_t) {});
    pool.set_task_observer(nullptr);
    const std::int64_t open = observer->open.load();
    delete observer;
    ASSERT_EQ(open, 0) << "round " << round;
  }
}

TEST(ThreadPool, SizeReflectsConstruction) {
  EXPECT_EQ(ThreadPool(3).size(), 3u);
  EXPECT_GE(ThreadPool(0).size(), 1u);  // hardware default
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
}

TEST(ThreadPool, GlobalPoolWidthIsTheHardwareConcurrency) {
  // Width = workers + the calling thread, which joins every parallel
  // call: the default must not oversubscribe the machine by one.
  if (const char* env = std::getenv("JAMELECT_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) {
      EXPECT_EQ(global_pool().size(), static_cast<std::size_t>(v));
      return;
    }
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw >= 2) {
    EXPECT_EQ(global_pool().size() + 1, hw);
  } else {
    EXPECT_EQ(global_pool().size(), 1u);  // never fewer than one worker
  }
}

}  // namespace
}  // namespace jamelect
