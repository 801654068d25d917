#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace simpush {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  task_ready_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    tasks_.push(std::move(task));
  }
  task_ready_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutting_down_ && tasks_.empty()) task_ready_.Wait(mu_);
      if (tasks_.empty()) {
        // shutting_down_ and queue drained.
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& body, size_t min_chunk) {
  if (begin >= end) return;
  const size_t total = end - begin;
  min_chunk = std::max<size_t>(min_chunk, 1);
  const size_t num_chunks =
      std::min(pool.num_threads(), (total + min_chunk - 1) / min_chunk);
  const size_t chunk = (total + num_chunks - 1) / num_chunks;

  // Completion is counted per call, so concurrent fan-outs sharing one
  // pool wait only for their own chunks, never for unrelated tasks.
  Mutex done_mu;
  CondVar chunk_done;
  size_t pending = (total + chunk - 1) / chunk;  // Guarded by done_mu.
  for (size_t lo = begin; lo < end; lo += chunk) {
    const size_t hi = std::min(end, lo + chunk);
    pool.Submit([lo, hi, &body, &done_mu, &chunk_done, &pending] {
      for (size_t i = lo; i < hi; ++i) body(i);
      MutexLock lock(&done_mu);
      if (--pending == 0) chunk_done.NotifyAll();
    });
  }
  MutexLock lock(&done_mu);
  while (pending != 0) chunk_done.Wait(done_mu);
}

}  // namespace simpush
