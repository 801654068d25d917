#include "simpush/parallel.h"

#include <algorithm>
#include <atomic>

#include "common/annotations.h"
#include "common/timer.h"

namespace simpush {

QueryExecutor::QueryExecutor(const Graph& graph,
                             const SimPushOptions& options,
                             size_t num_threads, size_t pool_capacity)
    : core_(graph, options),
      thread_pool_(num_threads),
      workspaces_(pool_capacity != 0 ? pool_capacity
                                     : thread_pool_.num_threads()) {}

void ForEachQueryChunked(
    QueryExecutor& executor, size_t num_items,
    const std::function<void(QueryRunner&, size_t begin, size_t end)>&
        run_chunk) {
  const size_t chunk =
      (num_items + executor.num_threads() - 1) / executor.num_threads();
  if (chunk == 0) return;
  // At most one chunk per worker, so ParallelFor hands every chunk
  // index to its own task. One leased workspace serves the whole
  // chunk; the lease returns to the pool when the runner dies, so a
  // later batch on the same executor reuses the (warm) workspace.
  ParallelFor(executor.thread_pool(), 0, (num_items + chunk - 1) / chunk,
              [&](size_t c) {
                QueryRunner runner(executor.core(), executor.workspaces());
                run_chunk(runner, c * chunk,
                          std::min(num_items, (c + 1) * chunk));
              });
}

ParallelBatchStats ParallelQueryBatch(
    QueryExecutor& executor, const std::vector<NodeId>& queries,
    const std::function<void(NodeId, const SimPushResult&)>& on_result) {
  ParallelBatchStats stats;
  Timer wall;
  stats.num_threads = executor.num_threads();

  Mutex result_mu;
  std::atomic<size_t> ok{0};
  std::atomic<size_t> failed{0};
  std::atomic<uint64_t> cpu_nanos{0};

  ForEachQueryChunked(
      executor, queries.size(),
      [&](QueryRunner& runner, size_t begin, size_t end) {
        SimPushResult result;  // Buffers reused across the whole chunk.
        for (size_t i = begin; i < end; ++i) {
          const NodeId u = queries[i];
          const double cpu_start = ThreadCpuSeconds();
          const Status status = runner.QueryInto(u, &result);
          cpu_nanos.fetch_add(static_cast<uint64_t>(
              (ThreadCpuSeconds() - cpu_start) * 1e9));
          if (!status.ok()) {
            failed.fetch_add(1);
            continue;
          }
          ok.fetch_add(1);
          MutexLock lock(&result_mu);
          on_result(u, result);
        }
      });

  stats.queries_ok = ok.load();
  stats.queries_failed = failed.load();
  stats.cpu_query_seconds = cpu_nanos.load() / 1e9;
  stats.wall_seconds = wall.ElapsedSeconds();
  return stats;
}

}  // namespace simpush
