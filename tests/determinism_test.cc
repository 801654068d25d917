// Determinism regression tests: batch results must be bit-identical for
// any thread count, and identical whether an engine is fresh, reused
// across many queries, or owned by a parallel worker. The invariant
// behind all of it: a query's RNG stream is derived from
// (options.seed, query node) and per-query scratch never leaks state.

#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "common/deadline.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "simpush/engine_core.h"
#include "simpush/parallel.h"
#include "simpush/query_runner.h"
#include "simpush/workspace.h"

namespace simpush {
namespace {

SimPushOptions TestOptions() {
  SimPushOptions options;
  options.epsilon = 0.05;
  options.walk_budget_cap = 5000;
  options.seed = 1234;
  return options;
}

std::vector<NodeId> FirstNodes(size_t count) {
  std::vector<NodeId> queries(count);
  for (size_t i = 0; i < count; ++i) queries[i] = static_cast<NodeId>(i);
  return queries;
}

using ScoreTable = std::map<NodeId, std::vector<double>>;

ScoreTable RunBatch(const Graph& graph, const std::vector<NodeId>& queries,
                    size_t threads) {
  ScoreTable scores;
  QueryExecutor executor(graph, TestOptions(), threads);
  auto stats = ParallelQueryBatch(executor, queries,
                                  [&](NodeId u, const SimPushResult& result) {
                                    scores[u] = result.scores;
                                  });
  // Guard against a vacuous pass: empty-vs-empty tables compare equal.
  EXPECT_EQ(stats.queries_ok, queries.size());
  EXPECT_EQ(scores.size(), queries.size());
  return scores;
}

void ExpectIdentical(const ScoreTable& a, const ScoreTable& b,
                     const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (const auto& [u, scores] : a) {
    auto it = b.find(u);
    ASSERT_NE(it, b.end()) << label << " query " << u;
    ASSERT_EQ(scores.size(), it->second.size()) << label << " query " << u;
    for (size_t v = 0; v < scores.size(); ++v) {
      // Bit-identical, not approximately equal.
      ASSERT_EQ(scores[v], it->second[v])
          << label << " query " << u << " node " << v;
    }
  }
}

TEST(DeterminismTest, BatchBitIdenticalAcrossThreadCounts) {
  auto graph = GenerateChungLu(300, 1800, 2.4, 77);
  ASSERT_TRUE(graph.ok());
  const auto queries = FirstNodes(24);

  const ScoreTable with_one = RunBatch(*graph, queries, 1);
  const ScoreTable with_two = RunBatch(*graph, queries, 2);
  const ScoreTable with_eight = RunBatch(*graph, queries, 8);
  ExpectIdentical(with_one, with_two, "1-vs-2 threads");
  ExpectIdentical(with_one, with_eight, "1-vs-8 threads");
}

TEST(DeterminismTest, BatchMatchesPerQueryFreshEngines) {
  // A parallel batch (engines reused across each worker's chunk) must
  // produce exactly what one fresh engine per query produces.
  auto graph = GenerateChungLu(250, 1500, 2.5, 79);
  ASSERT_TRUE(graph.ok());
  const auto queries = FirstNodes(12);

  ScoreTable fresh;
  for (NodeId u : queries) {
    SimPushEngine engine(*graph, TestOptions());
    auto result = engine.Query(u);
    ASSERT_TRUE(result.ok());
    fresh[u] = result->scores;
  }
  const ScoreTable batched = RunBatch(*graph, queries, 3);
  ExpectIdentical(fresh, batched, "fresh-vs-batch");
}

TEST(DeterminismTest, EngineReuseIdenticalToFreshEngine) {
  // Same engine, same query, repeated: bit-identical each time, and
  // identical to a brand-new engine's answer (before/after reuse).
  auto graph = GenerateErdosRenyi(200, 1400, 81);
  ASSERT_TRUE(graph.ok());
  SimPushEngine reused(*graph, TestOptions());

  auto first = reused.Query(7);
  ASSERT_TRUE(first.ok());
  // Interleave other queries to dirty the workspace.
  for (NodeId u : {3u, 11u, 42u, 7u, 199u}) {
    ASSERT_TRUE(reused.Query(u).ok());
  }
  auto again = reused.Query(7);
  ASSERT_TRUE(again.ok());

  SimPushEngine fresh(*graph, TestOptions());
  auto from_fresh = fresh.Query(7);
  ASSERT_TRUE(from_fresh.ok());

  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    ASSERT_EQ(first->scores[v], again->scores[v]) << "node " << v;
    ASSERT_EQ(first->scores[v], from_fresh->scores[v]) << "node " << v;
  }
}

TEST(DeterminismTest, NeverFiringCancelTokenIsInvisible) {
  // The cancellation determinism contract (common/deadline.h): a token
  // that never fires must be invisible — the poll reads state only and
  // never advances the RNG, so scores are BIT-identical with and
  // without a token installed.
  auto graph = GenerateChungLu(300, 1800, 2.4, 91);
  ASSERT_TRUE(graph.ok());
  const EngineCore core(*graph, TestOptions());
  ASSERT_TRUE(core.options_status().ok());

  QueryWorkspace plain_scratch;
  QueryRunner plain(core, &plain_scratch);
  QueryWorkspace watched_scratch;
  const CancelToken token(Deadline::After(60000));  // Never fires here.
  QueryRunner watched(core, &watched_scratch, &token);

  SimPushResult expected, observed;
  for (const NodeId u : {0u, 7u, 42u, 123u, 299u}) {
    ASSERT_TRUE(plain.QueryInto(u, &expected).ok());
    ASSERT_TRUE(watched.QueryInto(u, &observed).ok());
    ASSERT_EQ(expected.scores.size(), observed.scores.size());
    for (size_t v = 0; v < expected.scores.size(); ++v) {
      ASSERT_EQ(expected.scores[v], observed.scores[v])
          << "query " << u << " node " << v;
    }
  }
  EXPECT_FALSE(token.cancelled());
}

TEST(DeterminismTest, ExpiredDeadlineAbortsWithin50ms) {
  // An already-expired deadline must abort a query on a serving-sized
  // graph within 50ms — the engine polls its token every
  // kCancelCheckStride iterations in every stage, so the abort cannot
  // wait for a stage to finish.
  auto graph = GenerateChungLu(20000, 160000, 2.4, 93);
  ASSERT_TRUE(graph.ok());
  SimPushOptions options = TestOptions();
  options.walk_budget_cap = 100000;
  const EngineCore core(*graph, options);
  ASSERT_TRUE(core.options_status().ok());

  QueryWorkspace scratch;
  const CancelToken token(Deadline::Expired());
  QueryRunner runner(core, &scratch, &token);

  Timer timer;
  SimPushResult result;
  const Status status = runner.QueryInto(0, &result);
  const double elapsed_ms = timer.ElapsedSeconds() * 1e3;
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  EXPECT_LT(elapsed_ms, 50.0);
}

TEST(DeterminismTest, BatchedEqualsSerialBitIdentical) {
  // The batched SoA walk kernel's determinism bar: because every walk
  // draws from its own counter stream Rng::ForWalk(seed', u, i), the
  // thread count is a pure scheduling knob — the scores must be
  // BIT-identical for any thread count, on a serving-sized graph. (The
  // wave width is the kernel's other scheduling knob; walk_test's
  // KernelMatchesSerialWalkerPerStream and
  // WaveSizeIsInvisibleAndUnfiredTokenToo pin it at the kernel.)
  auto graph = GenerateChungLu(20000, 160000, 2.4, 95);
  ASSERT_TRUE(graph.ok());
  const auto queries = FirstNodes(6);

  auto run = [&](size_t threads) {
    ScoreTable scores;
    QueryExecutor executor(*graph, TestOptions(), threads);
    auto stats = ParallelQueryBatch(executor, queries,
                                    [&](NodeId u, const SimPushResult& r) {
                                      scores[u] = r.scores;
                                    });
    EXPECT_EQ(stats.queries_ok, queries.size());
    EXPECT_EQ(scores.size(), queries.size());
    return scores;
  };

  const ScoreTable serial = run(1);
  ExpectIdentical(serial, run(4), "1-vs-4 threads");
  ExpectIdentical(serial, run(8), "1-vs-8 threads");
}

TEST(DeterminismTest, UnfiredTokenInvisibleToBatchedKernel) {
  // Mid-batch cancellation polls happen between walk waves; a token
  // that never fires must leave batched results bit-identical. (Every
  // wave width with an unfired token is pinned at the kernel by
  // walk_test's WaveSizeIsInvisibleAndUnfiredTokenToo; a fired token's
  // abort path is covered by ExpiredDeadlineAbortsWithin50ms.)
  auto graph = GenerateChungLu(2000, 14000, 2.4, 97);
  ASSERT_TRUE(graph.ok());
  const EngineCore core(*graph, TestOptions());
  ASSERT_TRUE(core.options_status().ok());
  const auto run = [&](const CancelToken* token) {
    QueryWorkspace scratch;
    QueryRunner runner(core, &scratch, token);
    SimPushResult result;
    EXPECT_TRUE(runner.QueryInto(42, &result).ok());
    return result.scores;
  };
  const CancelToken token(Deadline::After(600000));  // Never fires here.
  const auto bare = run(nullptr);
  const auto watched = run(&token);
  ASSERT_EQ(bare.size(), watched.size());
  for (size_t v = 0; v < bare.size(); ++v) {
    ASSERT_EQ(bare[v], watched[v]) << "node " << v;
  }
  EXPECT_FALSE(token.cancelled());
}

// FNV-1a over the raw bits of every score plus the G_u shape stats of
// each query: any change that moves one score bit (even within ε) or
// resizes G_u changes the digest.
uint64_t GoldenDigest(const SimPushOptions& options) {
  auto graph = GenerateChungLu(5000, 40000, 2.4, 1501);
  EXPECT_TRUE(graph.ok());
  if (!graph.ok()) return 0;
  const EngineCore core(*graph, options);
  EXPECT_TRUE(core.options_status().ok());
  QueryWorkspace scratch;
  QueryRunner runner(core, &scratch);
  uint64_t hash = 0xCBF29CE484222325ULL;
  const auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  };
  SimPushResult result;
  for (const NodeId u : {0u, 1u, 17u, 256u, 999u, 2024u, 3333u, 4999u}) {
    EXPECT_TRUE(runner.QueryInto(u, &result).ok()) << "query " << u;
    for (const double score : result.scores) {
      mix(std::bit_cast<uint64_t>(score));
    }
    mix(result.stats.max_level);
    mix(result.stats.num_attention);
    mix(result.stats.gu_node_occurrences);
  }
  return hash;
}

TEST(DeterminismTest, GoldenScoreBitsPinned) {
  // Digests of the reference engine. A refactor of any stage must keep
  // them: staying within ε is not enough, every score bit must hold.
  SimPushOptions options = TestOptions();
  EXPECT_EQ(GoldenDigest(options), 0x21849FD89EEF027AULL) << "default";
  options.use_level_detection = false;
  EXPECT_EQ(GoldenDigest(options), 0x1297DE2AD76861B7ULL) << "no detection";
}

}  // namespace
}  // namespace simpush
