// Unit tests for ThreadPool: chunked bulk execution, exception transport,
// serial degradation at width 1, and a completion-wakeup stress test.
#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace bbng {
namespace {

TEST(ThreadPool, WidthDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.width(), 1U);
}

TEST(ThreadPool, SerialPoolRunsEverything) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.run_chunked(100, 7, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i]++;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelPoolCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.run_chunked(1000, 13, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.run_chunked(0, 1, [&](std::uint64_t, std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ZeroGrainRejected) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_chunked(10, 0, [](std::uint64_t, std::uint64_t) {}),
               std::invalid_argument);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run_chunked(100, 1,
                                [](std::uint64_t b, std::uint64_t) {
                                  if (b == 42) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossManyBulks) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run_chunked(64, 8, [&](std::uint64_t b, std::uint64_t e) {
      total.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 64U * 50U);
}

TEST(ThreadPool, BackToBackBulksNeverLoseTheCompletionWakeup) {
  // A worker leaving a bulk must drop its driver count under the pool mutex:
  // the submitter tests "every chunk done and no driver left" under that
  // mutex, so a decrement + notify landing between the test and the block
  // would be lost and run_chunked would sleep forever. Many tiny bulks back
  // to back hammer that window; the watchdog turns a hang into a failure.
  constexpr std::uint64_t kRounds = 50000;
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (!done_cv.wait_for(lock, std::chrono::seconds(60), [&] { return done; })) {
      // The submitter is blocked for good: end the process as a failure.
      std::fputs("ThreadPool.BackToBackBulksNeverLoseTheCompletionWakeup: run_chunked never "
                 "returned, a completion wakeup was lost\n",
                 stderr);
      std::_Exit(EXIT_FAILURE);
    }
  });
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    pool.run_chunked(4, 1, [&](std::uint64_t b, std::uint64_t e) {
      total.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  done_cv.notify_one();
  watchdog.join();
  EXPECT_EQ(total.load(), 4 * kRounds);
}

TEST(ParallelFor, SumOfIndices) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> values(5000, 0);
  parallel_for(pool, values.size(), [&](std::uint64_t i) { values[i] = i; });
  const std::uint64_t sum = std::accumulate(values.begin(), values.end(), 0ULL);
  EXPECT_EQ(sum, 5000ULL * 4999 / 2);
}

TEST(ParallelFor, SharedPoolOverload) {
  std::vector<std::atomic<int>> hits(256);
  parallel_for(hits.size(), [&](std::uint64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelReduce, SumMatchesSerial) {
  ThreadPool pool(4);
  const std::uint64_t n = 10000;
  const auto sum = parallel_reduce<std::uint64_t>(
      pool, n, 0ULL, [](std::uint64_t i) { return i; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(ParallelReduce, MaxReduction) {
  ThreadPool pool(2);
  std::vector<std::uint64_t> data(777);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = (i * 37) % 1000;
  const auto max_val = parallel_reduce<std::uint64_t>(
      pool, data.size(), 0ULL, [&](std::uint64_t i) { return data[i]; },
      [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; });
  EXPECT_EQ(max_val, *std::max_element(data.begin(), data.end()));
}

TEST(PickGrain, NeverBelowMinimum) {
  EXPECT_GE(pick_grain(10, 4, 8), 8U);
  EXPECT_GE(pick_grain(1000000, 4, 1), 1U);
}

TEST(PickGrain, CoversCountWithChunks) {
  const std::uint64_t grain = pick_grain(100, 4);
  EXPECT_GT(grain, 0U);
  EXPECT_LE(grain, 100U);
}

}  // namespace
}  // namespace bbng
