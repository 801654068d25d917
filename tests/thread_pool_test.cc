// Unit tests for the ThreadPool / ParallelFor substrate, plus the
// capability-annotated lock wrappers it runs on (common/annotations.h).

#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "gtest/gtest.h"

namespace simpush {
namespace {

// The wrappers must be bit-invisible: a Mutex IS a std::mutex plus
// compile-time attributes, nothing more. A size change would mean a
// runtime cost snuck in (and would shift every struct layout in the
// serving stack).
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "Mutex wrapper must add zero state over std::mutex");

// Exercises Mutex/MutexLock/CondVar + AssertHeld under real thread
// contention — the TSan concurrency tier proves the wrappers inherit
// std::mutex's happens-before edges (a broken CondVar::Wait adoption
// would race here). AssertHeld() is the ASSERT_CAPABILITY hook: a
// compile-time fact under clang, a free no-op call here.
TEST(AnnotationsTest, WrappersSynchronizeUnderContention) {
  Mutex mu;
  CondVar cv;
  int value = 0;       // Guarded by mu.
  bool ready = false;  // Guarded by mu.

  std::thread consumer([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
    mu.AssertHeld();  // Reacquired by Wait; the analysis already knows.
    EXPECT_EQ(value, 42);
    value = 43;
  });

  {
    MutexLock lock(&mu);
    mu.AssertHeld();
    value = 42;
    ready = true;
  }
  cv.NotifyOne();
  consumer.join();

  MutexLock lock(&mu);
  EXPECT_EQ(value, 43);
}

TEST(AnnotationsTest, TryLockAndManualLockRoundTrip) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  mu.AssertHeld();
  // A second TryLock from another thread must fail while held.
  bool acquired = true;
  std::thread prober([&] { acquired = mu.TryLock(); });
  prober.join();
  EXPECT_FALSE(acquired);
  mu.Unlock();

  mu.Lock();
  mu.AssertHeld();
  mu.Unlock();
}

TEST(AnnotationsTest, WaitForTimesOutWithoutNotification) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  EXPECT_EQ(cv.WaitFor(mu, std::chrono::milliseconds(1)),
            std::cv_status::timeout);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsSequentially) {
  std::vector<int> order;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&order, i] { order.push_back(i); });
    }
    // The destructor drains the queue before joining.
  }
  // One worker: FIFO order is deterministic and no data race on `order`.
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ReusableAcrossParallelForCycles) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    ParallelFor(pool, 0, 20, [&counter](size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // Nothing waits: the destructor must still run every queued task.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelForTest, CoversEntireRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, 0, hits.size(),
              [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  ParallelFor(pool, 5, 5, [&counter](size_t) { counter.fetch_add(1); });
  ParallelFor(pool, 7, 3, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ParallelForTest, NonZeroBeginOffset) {
  ThreadPool pool(3);
  std::atomic<uint64_t> sum{0};
  ParallelFor(pool, 10, 20, [&sum](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145u);  // 10 + 11 + ... + 19
}

TEST(ParallelForTest, MinChunkLargerThanRange) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  ParallelFor(pool, 0, 5, [&counter](size_t) { counter.fetch_add(1); },
              /*min_chunk=*/100);
  EXPECT_EQ(counter.load(), 5);
}

TEST(ParallelForTest, ParallelSumMatchesSequential) {
  ThreadPool pool(4);
  std::vector<uint64_t> values(10000);
  std::iota(values.begin(), values.end(), 1);
  std::atomic<uint64_t> parallel_sum{0};
  ParallelFor(pool, 0, values.size(), [&](size_t i) {
    parallel_sum.fetch_add(values[i]);
  });
  const uint64_t expected =
      std::accumulate(values.begin(), values.end(), uint64_t{0});
  EXPECT_EQ(parallel_sum.load(), expected);
}

TEST(ParallelForTest, ReturnsWhileUnrelatedTaskBlocks) {
  // ParallelFor waits only for its own chunks: a task another caller
  // left blocked on the same pool must not hold it up. The call runs
  // under a timed wait, so a fan-out that waits for the whole pool
  // fails here instead of hanging the suite.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.Submit([released] { released.wait(); });
  std::atomic<int> counter{0};
  auto fan_out = std::async(std::launch::async, [&pool, &counter] {
    ParallelFor(pool, 0, 100, [&counter](size_t) { counter.fetch_add(1); });
  });
  const bool returned = fan_out.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  release.set_value();
  fan_out.get();
  EXPECT_TRUE(returned) << "ParallelFor waited for an unrelated task";
  EXPECT_EQ(counter.load(), 100);
}

}  // namespace
}  // namespace simpush
