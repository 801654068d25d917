// Fixed-size thread pool with a blocking task queue plus ParallelFor,
// the one fan-out every concurrent query path (batch, join, the serve
// layer's /v1/batch) is built on; the single-query SimPush path stays
// strictly single-threaded (matching the paper's measurements).

#ifndef SIMPUSH_COMMON_THREAD_POOL_H_
#define SIMPUSH_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotations.h"

namespace simpush {

/// Fixed-size pool of worker threads consuming a FIFO task queue.
///
/// Tasks are `std::function<void()>`; exceptions must not escape a task
/// (the library is exception-free at its API boundary, so tasks report
/// failures through captured state instead).
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1; 0 is clamped to the hardware
  /// concurrency, or 1 when that is unknown).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Never blocks (unbounded queue). A caller that
  /// needs its tasks finished waits for them itself (ParallelFor does).
  void Submit(std::function<void()> task);

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar task_ready_;
  std::queue<std::function<void()>> tasks_ SIMPUSH_GUARDED_BY(mu_);
  bool shutting_down_ SIMPUSH_GUARDED_BY(mu_) = false;
  // Written once by the constructor before any concurrent access;
  // num_threads() reads it lock-free thereafter.
  std::vector<std::thread> workers_;
};

/// Runs `body(i)` for every i in [begin, end) across the pool, splitting
/// the range into contiguous chunks (one per worker, minimum `min_chunk`
/// indices each) and blocking until all chunks finish. It waits only
/// for its own chunks, never for unrelated tasks on the same pool, so
/// concurrent fan-outs sharing one pool stay independent. `body` must
/// be safe to call concurrently for distinct i.
void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& body,
                 size_t min_chunk = 1);

}  // namespace simpush

#endif  // SIMPUSH_COMMON_THREAD_POOL_H_
