// Parallel batch single-source SimRank on the shared-immutable engine
// core: ONE EngineCore (read-only, shared by every worker) + ONE
// ThreadPool + ONE WorkspacePool of QueryWorkspaces capped at the
// worker count. Queries fan out as closures that lease a workspace,
// bind it to the core through a QueryRunner, and return it when done —
// peak query-scratch memory is bounded by the pool size, not by how
// many requests or workers exist.
//
// Single-query latency is untouched — the paper's realtime claim is a
// one-thread number and stays that way in the benches. This module
// targets *throughput*: offline scoring jobs, or an online service
// answering independent user queries concurrently, both natural uses of
// an index-free method (nothing shared to invalidate).

#ifndef SIMPUSH_SIMPUSH_PARALLEL_H_
#define SIMPUSH_SIMPUSH_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
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
  double cpu_query_seconds = 0; ///< Sum of per-query times across workers.
  size_t num_threads = 0;       ///< Worker threads the batch ran on.
};

/// One query's top-k entries (node, score), highest score first; ties
/// go to the smaller id and zero-score nodes are never reported.
struct BatchTopKResult {
  NodeId query = kInvalidNode;
  std::vector<std::pair<NodeId, double>> topk;
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

/// One-shot convenience: builds a private executor with `num_threads`
/// workers (0 = hardware concurrency) and runs the batch on it.
ParallelBatchStats ParallelQueryBatch(
    const Graph& graph, const SimPushOptions& options,
    const std::vector<NodeId>& queries, size_t num_threads,
    const std::function<void(NodeId, const SimPushResult&)>& on_result);

/// Materializing convenience wrapper: top-k per query, in query order.
StatusOr<std::vector<BatchTopKResult>> ParallelQueryBatchTopK(
    QueryExecutor& executor, const std::vector<NodeId>& queries, size_t k,
    ParallelBatchStats* stats = nullptr);
StatusOr<std::vector<BatchTopKResult>> ParallelQueryBatchTopK(
    const Graph& graph, const SimPushOptions& options,
    const std::vector<NodeId>& queries, size_t k, size_t num_threads,
    ParallelBatchStats* stats = nullptr);

/// Building block shared by the batch and join fan-outs: splits
/// [0, num_items) into contiguous chunks, one per pool worker, and runs
/// `run_chunk(runner, begin, end)` with a QueryRunner holding one
/// pooled workspace (warm across executor reuse) for the whole chunk.
/// Blocks until all chunks finish. Determinism does not depend on the
/// chunking: every query's RNG stream is derived from (options.seed,
/// node) inside the runner.
void ForEachQueryChunked(
    QueryExecutor& executor, size_t num_items,
    const std::function<void(QueryRunner&, size_t begin, size_t end)>&
        run_chunk);

/// Unbundled form of the fan-out for callers that compose the substrate
/// themselves instead of owning a QueryExecutor — the multi-tenant
/// GraphRegistry shares ONE ThreadPool across every tenant while each
/// graph generation owns its core + workspace pool, so (core, threads,
/// workspaces) arrive from different owners. Contracts are unchanged:
/// core immutable, both pools internally synchronized, one leased
/// workspace per chunk.
///
/// `cancel`, when non-null, is propagated into every chunk's runner
/// (which polls it at a bounded stride) AND gates the fan-out itself: a
/// chunk whose task starts after the token fired returns immediately
/// without leasing a workspace, so one expired batch stops fanning out
/// instead of draining the pool. Leases return via RAII either way.
void ForEachQueryChunked(
    const EngineCore& core, ThreadPool& thread_pool,
    WorkspacePool& workspaces, size_t num_items,
    const std::function<void(QueryRunner&, size_t begin, size_t end)>&
        run_chunk,
    const CancelToken* cancel = nullptr);

/// Unbundled top-k batch, same composition story as the unbundled
/// ForEachQueryChunked (used by the registry's per-tenant /v1/batch).
/// A fired `cancel` aborts the batch with the token's status
/// (kDeadlineExceeded / kCancelled) instead of a partial result.
StatusOr<std::vector<BatchTopKResult>> ParallelQueryBatchTopK(
    const EngineCore& core, ThreadPool& thread_pool,
    WorkspacePool& workspaces, const std::vector<NodeId>& queries, size_t k,
    ParallelBatchStats* stats = nullptr,
    const CancelToken* cancel = nullptr);

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_PARALLEL_H_
