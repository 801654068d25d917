// Tests for parallel batch query execution.

#include "simpush/parallel.h"

#include <map>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"

namespace simpush {
namespace {

SimPushOptions TestOptions() {
  SimPushOptions options;
  options.epsilon = 0.05;
  options.walk_budget_cap = 5000;
  options.seed = 7;
  return options;
}

std::vector<NodeId> FirstNodes(size_t count) {
  std::vector<NodeId> queries(count);
  for (size_t i = 0; i < count; ++i) queries[i] = static_cast<NodeId>(i);
  return queries;
}

TEST(ParallelBatchTest, AllQueriesComplete) {
  auto graph = GenerateChungLu(400, 2400, 2.5, 3);
  ASSERT_TRUE(graph.ok());
  const auto queries = FirstNodes(16);
  std::map<NodeId, double> self_scores;
  QueryExecutor executor(*graph, TestOptions(), /*num_threads=*/4);
  auto stats = ParallelQueryBatch(
      executor, queries, [&](NodeId u, const SimPushResult& result) {
        self_scores[u] = result.scores[u];
      });
  EXPECT_EQ(stats.queries_ok, queries.size());
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_EQ(stats.num_threads, 4u);
  ASSERT_EQ(self_scores.size(), queries.size());
  for (const auto& [u, score] : self_scores) {
    EXPECT_DOUBLE_EQ(score, 1.0) << "s(u,u) must be 1 for query " << u;
  }
}

TEST(ParallelBatchTest, InvalidQueriesCountedNotFatal) {
  auto graph = GenerateErdosRenyi(50, 250, 3);
  ASSERT_TRUE(graph.ok());
  std::vector<NodeId> queries = {1, 2, 999, 3, 888};
  size_t callbacks = 0;
  QueryExecutor executor(*graph, TestOptions(), 2);
  auto stats = ParallelQueryBatch(
      executor, queries, [&](NodeId, const SimPushResult&) { ++callbacks; });
  EXPECT_EQ(stats.queries_ok, 3u);
  EXPECT_EQ(stats.queries_failed, 2u);
  EXPECT_EQ(callbacks, 3u);
}

TEST(ParallelBatchTest, ResultsIndependentOfThreadCount) {
  // Determinism contract: per-query RNG streams are keyed on
  // (seed, node), so any thread count produces identical scores.
  auto graph = GenerateChungLu(300, 1800, 2.4, 9);
  ASSERT_TRUE(graph.ok());
  const auto queries = FirstNodes(8);

  auto run = [&](size_t threads) {
    std::map<NodeId, std::vector<double>> scores;
    QueryExecutor executor(*graph, TestOptions(), threads);
    ParallelQueryBatch(executor, queries,
                       [&](NodeId u, const SimPushResult& result) {
                         scores[u] = result.scores;
                       });
    return scores;
  };
  const auto with_one = run(1);
  const auto with_four = run(4);
  ASSERT_EQ(with_one.size(), with_four.size());
  for (const auto& [u, scores] : with_one) {
    const auto& other = with_four.at(u);
    ASSERT_EQ(scores.size(), other.size());
    for (size_t v = 0; v < scores.size(); ++v) {
      ASSERT_DOUBLE_EQ(scores[v], other[v]) << "query " << u << " node " << v;
    }
  }
}

TEST(ParallelBatchTest, CpuSecondsAreBoundedByWorkerWallTime) {
  // cpu_query_seconds sums each worker's thread CPU time inside
  // QueryInto, so it is positive for real work and cannot exceed what
  // num_threads threads could burn in the batch's wall time.
  auto graph = GenerateChungLu(2000, 16000, 2.4, 11);
  ASSERT_TRUE(graph.ok());
  QueryExecutor executor(*graph, TestOptions(), /*num_threads=*/4);
  auto stats = ParallelQueryBatch(executor, FirstNodes(32),
                                  [](NodeId, const SimPushResult&) {});
  ASSERT_EQ(stats.queries_ok, 32u);
  EXPECT_GT(stats.cpu_query_seconds, 0.0);
  const double slack = 0.01;  // Clock reads at the edges of the batch.
  EXPECT_LE(stats.cpu_query_seconds,
            stats.wall_seconds * stats.num_threads + slack);
}

TEST(ParallelBatchTest, EmptyQuerySet) {
  auto graph = GenerateErdosRenyi(30, 120, 3);
  ASSERT_TRUE(graph.ok());
  QueryExecutor executor(*graph, TestOptions(), 2);
  auto stats =
      ParallelQueryBatch(executor, {}, [](NodeId, const SimPushResult&) {});
  EXPECT_EQ(stats.queries_ok, 0u);
  EXPECT_EQ(stats.queries_failed, 0u);
}

}  // namespace
}  // namespace simpush
