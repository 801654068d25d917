// Parallel batch single-source SimRank on the shared-immutable engine
// core: ONE EngineCore (read-only, shared by every worker) + ONE
// ThreadPool + ONE WorkspacePool of QueryWorkspaces capped at the
// worker count. Queries fan out as ParallelFor chunks that each lease
// a workspace, bind it to the core through a QueryRunner, and return
// it when done — peak query-scratch memory is bounded by the pool
// size, not by how many requests or workers exist.
//
// Single-query latency is untouched — the paper's realtime claim is a
// one-thread number and stays that way in the benches. This module
// targets *throughput*: offline scoring jobs (batches, the similarity
// join), a natural use of an index-free method (nothing shared to
// invalidate). The serving layer's /v1/batch does not use it: each of
// its sources runs the service's single-source path, cache included.

#ifndef SIMPUSH_SIMPUSH_PARALLEL_H_
#define SIMPUSH_SIMPUSH_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "graph/graph.h"
#include "simpush/engine_core.h"
#include "simpush/query_runner.h"
#include "simpush/simpush.h"
#include "simpush/workspace_pool.h"

namespace simpush {

/// One engine core + one thread pool + one workspace pool: the
/// execution context every concurrent query path shares. Construct it
/// once per (graph, options) configuration and submit any number of
/// batches / joins / ad-hoc queries — worker threads and workspaces are
/// reused across calls, and the warm workspaces keep the steady state
/// allocation-free.
///
/// Thread-safety contract: core() is immutable and freely shared;
/// thread_pool() and workspaces() are internally synchronized; the
/// QueryRunner each task builds is task-local. It is safe to submit
/// from multiple threads, and to run several batches concurrently on
/// one executor — each fan-out waits only for its own chunks, though
/// concurrent batches do share the worker threads and workspaces.
class QueryExecutor {
 public:
  /// `num_threads` sizes the thread pool (0 = hardware concurrency).
  /// `pool_capacity` caps the workspace pool independently (0 = match
  /// the thread count): capacity P < threads bounds peak query-scratch
  /// memory at O(P·n), trading parallelism for memory — surplus
  /// workers block in Acquire until a chunk finishes. The graph must
  /// outlive the executor.
  QueryExecutor(const Graph& graph, const SimPushOptions& options,
                size_t num_threads = 0, size_t pool_capacity = 0);

  /// The shared immutable core; safe from any thread.
  const EngineCore& core() const { return core_; }
  /// The shared worker pool (internally synchronized).
  ThreadPool& thread_pool() { return thread_pool_; }
  /// The bounded workspace pool (internally synchronized).
  WorkspacePool& workspaces() { return workspaces_; }
  /// Number of worker threads in the pool.
  size_t num_threads() const { return thread_pool_.num_threads(); }

 private:
  EngineCore core_;
  ThreadPool thread_pool_;
  WorkspacePool workspaces_;
};

/// Aggregate statistics from a parallel batch run.
struct ParallelBatchStats {
  size_t queries_ok = 0;        ///< Queries that returned scores.
  size_t queries_failed = 0;    ///< Queries skipped (e.g. bad node id).
  double wall_seconds = 0;      ///< End-to-end elapsed time.
  double cpu_query_seconds = 0; ///< Workers' thread CPU inside QueryInto.
  size_t num_threads = 0;       ///< Worker threads the batch ran on.
};

/// Runs every query in `queries` on a shared executor. `on_result` is
/// invoked under a mutex — it may touch shared state freely but should
/// stay cheap; heavy post-processing belongs on the caller's side of a
/// queue.
///
/// Results arrive in completion order, not query order; the query node
/// is passed alongside each result. Per-query failures are counted and
/// skipped. Determinism: each query's RNG stream is derived from
/// (options.seed, query node), so results are bit-identical for any
/// thread count, scheduling, or pooled-workspace assignment.
ParallelBatchStats ParallelQueryBatch(
    QueryExecutor& executor, const std::vector<NodeId>& queries,
    const std::function<void(NodeId, const SimPushResult&)>& on_result);

/// Building block shared by the batch and join fan-outs: splits
/// [0, num_items) into contiguous chunks, one per pool worker, and runs
/// `run_chunk(runner, begin, end)` through ParallelFor with a
/// QueryRunner holding one pooled workspace (warm across executor
/// reuse) for the whole chunk. Blocks until all chunks finish.
/// Determinism does not depend on the chunking: every query's RNG
/// stream is derived from (options.seed, node) inside the runner.
void ForEachQueryChunked(
    QueryExecutor& executor, size_t num_items,
    const std::function<void(QueryRunner&, size_t begin, size_t end)>&
        run_chunk);

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_PARALLEL_H_
