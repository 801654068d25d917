// Tests for the QueryWorkspace subsystem: the flat level tally,
// workspace reuse correctness across many queries on one engine, the
// all-zero invariant of the stages' dense scratch (also after a
// cancelled push or hitting stage), and the zero-allocation steady
// state (this binary links the counting operator new/delete from
// common/alloc_hook.cc).

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/deadline.h"
#include "common/memory.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "simpush/hitting.h"
#include "simpush/last_meeting.h"
#include "simpush/reverse_push.h"
#include "simpush/simpush.h"
#include "simpush/source_push.h"
#include "simpush/workspace.h"
#include "test_util.h"

namespace simpush {
namespace {

TEST(LevelNodeTallyTest, CountsAndRoundsAreIsolated) {
  LevelNodeTally tally;
  tally.NewRound();
  EXPECT_EQ(tally.Increment(42), 1u);
  EXPECT_EQ(tally.Increment(42), 2u);
  EXPECT_EQ(tally.Increment(7), 1u);
  EXPECT_EQ(tally.size(), 2u);
  tally.NewRound();
  EXPECT_EQ(tally.size(), 0u);
  EXPECT_EQ(tally.Increment(42), 1u) << "previous round must not leak";
}

TEST(LevelNodeTallyTest, SurvivesGrowthWithManyKeys) {
  LevelNodeTally tally;
  tally.NewRound();
  const uint64_t kKeys = 5000;
  for (uint64_t round = 0; round < 3; ++round) {
    for (uint64_t key = 0; key < kKeys; ++key) {
      tally.Increment(key << 17 | key);  // Spread keys out.
    }
  }
  for (uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ(tally.Increment(key << 17 | key), 4u) << "key " << key;
  }
}

TEST(WorkspaceReuseTest, ManyQueriesMatchFreshEngineExactly) {
  // >= 3 queries on one engine must match a fresh engine's answer for
  // every query, bit for bit — workspace reuse is invisible.
  Graph g = testing_util::RandomGraph(150, 1050, 53);
  SimPushOptions options;
  options.epsilon = 0.05;
  options.walk_budget_cap = 5000;

  SimPushEngine reused(g, options);
  const std::vector<NodeId> queries = {5, 77, 5, 149, 0, 23};
  for (NodeId u : queries) {
    auto from_reused = reused.Query(u);
    ASSERT_TRUE(from_reused.ok()) << "query " << u;
    SimPushEngine fresh(g, options);
    auto from_fresh = fresh.Query(u);
    ASSERT_TRUE(from_fresh.ok()) << "query " << u;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(from_reused->scores[v], from_fresh->scores[v])
          << "query " << u << " node " << v;
    }
  }
}

TEST(WorkspaceReuseTest, QueryIntoMatchesQuery) {
  Graph g = testing_util::RandomGraph(120, 840, 59);
  SimPushOptions options;
  options.epsilon = 0.05;
  options.walk_budget_cap = 5000;
  SimPushEngine engine(g, options);

  SimPushResult reused_result;
  for (NodeId u : {NodeId(2), NodeId(60), NodeId(119)}) {
    ASSERT_TRUE(engine.QueryInto(u, &reused_result).ok());
    auto fresh_result = engine.Query(u);
    ASSERT_TRUE(fresh_result.ok());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(reused_result.scores[v], fresh_result->scores[v])
          << "query " << u << " node " << v;
    }
  }
}

// The stages' contract: dense_a/dense_b, the first-touch masks and
// the hitting scratch are all zero between stages.
bool PushScratchIsZero(const QueryWorkspace& workspace) {
  auto all_zero = [](const auto& values) {
    return std::all_of(values.begin(), values.end(),
                       [](auto x) { return x == 0; });
  };
  return all_zero(workspace.dense_a) && all_zero(workspace.dense_b) &&
         all_zero(workspace.touched_a) && all_zero(workspace.touched_b) &&
         all_zero(workspace.holder_span) &&
         all_zero(workspace.scratch_bits) &&
         all_zero(workspace.attention_accum);
}

// A source whose G_u levels outgrow kCancelCheckStride, so a fired
// token stops a push in the middle of a level.
struct ZeroInvariantFixture {
  Graph graph;
  SimPushOptions options;
  NodeId source = 0;

  ZeroInvariantFixture() {
    auto g = GenerateChungLu(3000, 30000, 2.2, 21);
    EXPECT_TRUE(g.ok());
    graph = std::move(g).value();
    options.epsilon = 0.02;
    options.walk_budget_cap = 5000;
    options.use_level_detection = false;  // Push all L* levels.
  }

  // Runs the whole query on `workspace` and on a cold one; the scores
  // must agree bit for bit and both workspaces end all zero.
  void ExpectQueryMatchesColdWorkspace(QueryWorkspace* workspace) const {
    const EngineCore core(graph, options);
    SimPushResult warm_result;
    ASSERT_TRUE(QueryRunner(core, workspace).QueryInto(source, &warm_result)
                    .ok());
    QueryWorkspace cold;
    SimPushResult cold_result;
    ASSERT_TRUE(QueryRunner(core, &cold).QueryInto(source, &cold_result).ok());
    ASSERT_EQ(warm_result.scores.size(), cold_result.scores.size());
    EXPECT_EQ(std::memcmp(warm_result.scores.data(),
                          cold_result.scores.data(),
                          warm_result.scores.size() * sizeof(double)),
              0);
    EXPECT_TRUE(PushScratchIsZero(*workspace));
    EXPECT_TRUE(PushScratchIsZero(cold));
  }
};

TEST(PushZeroInvariantTest, CancelledSourcePushRestoresZeros) {
  ZeroInvariantFixture f;
  const DerivedParams params = ComputeDerivedParams(f.options);
  QueryWorkspace workspace;
  SourceGraph gu;
  Rng rng(1);
  ASSERT_TRUE(SourcePushInto(f.graph, f.source, f.options, params, &rng,
                             &workspace, &gu, nullptr)
                  .ok());
  size_t widest_level = 0;
  for (uint32_t level = 1; level <= gu.max_level(); ++level) {
    size_t members = 0;
    for (NodeId v = 0; v < f.graph.num_nodes(); ++v) {
      members += gu.Contains(level, v) ? 1 : 0;
    }
    widest_level = std::max(widest_level, members);
  }
  ASSERT_GT(widest_level, kCancelCheckStride);

  CancelToken fired;
  fired.Cancel();
  const Status status = SourcePushInto(f.graph, f.source, f.options, params,
                                       &rng, &workspace, &gu, nullptr,
                                       &fired);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(PushScratchIsZero(workspace));
  f.ExpectQueryMatchesColdWorkspace(&workspace);
}

TEST(PushZeroInvariantTest, CancelledReversePushRestoresZeros) {
  ZeroInvariantFixture f;
  const DerivedParams params = ComputeDerivedParams(f.options);
  // A G_u whose deepest level injects more residues than
  // kCancelCheckStride, each far above the push threshold: the poll
  // fires inside that level, after earlier residues filled level 2's
  // accumulator.
  SourceGraph gu;
  gu.Reset(/*max_level=*/3, f.graph.num_nodes());
  const NodeId injected = 2 * kCancelCheckStride;
  for (NodeId v = 0; v < injected; ++v) gu.AddAttentionNode(v, 3, 0.5);
  const std::vector<double> gamma(injected, 1.0);

  CancelToken fired;
  fired.Cancel();
  QueryWorkspace workspace;
  std::vector<double> scores(f.graph.num_nodes(), 0.0);
  const Status status =
      ReversePush(f.graph, gu, gamma, params.sqrt_c, params.eps_h,
                  &workspace, &scores, nullptr, &fired);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(PushScratchIsZero(workspace));
  f.ExpectQueryMatchesColdWorkspace(&workspace);
}

TEST(PushZeroInvariantTest, CancelledHittingRestoresZeros) {
  ZeroInvariantFixture f;
  const DerivedParams params = ComputeDerivedParams(f.options);
  QueryWorkspace workspace;
  SourceGraph gu;
  Rng rng(1);
  ASSERT_TRUE(SourcePushInto(f.graph, f.source, f.options, params, &rng,
                             &workspace, &gu, nullptr)
                  .ok());
  HittingTable full;
  ComputeHittingTable(f.graph, gu, params.sqrt_c, &workspace, &full);
  // Every vector above the deepest level was emitted by a distinct
  // receiver, so this bounds the receivers from below: the poll fires
  // in the middle of the pulls.
  const size_t receivers =
      full.NumVectors() - gu.AttentionOnLevel(gu.max_level()).size();
  ASSERT_GT(receivers, kCancelCheckStride);
  ASSERT_TRUE(PushScratchIsZero(workspace));

  CancelToken fired;
  fired.Cancel();
  HittingTable partial;
  ComputeHittingTable(f.graph, gu, params.sqrt_c, &workspace, &partial,
                      &fired);
  EXPECT_LT(partial.NumEntries(), full.NumEntries());
  EXPECT_TRUE(PushScratchIsZero(workspace));
  f.ExpectQueryMatchesColdWorkspace(&workspace);
}

TEST(PushZeroInvariantTest, EverySuccessfulQueryLeavesZeros) {
  ZeroInvariantFixture f;
  f.options.use_level_detection = true;
  const EngineCore core(f.graph, f.options);
  QueryWorkspace workspace;
  QueryRunner runner(core, &workspace);
  SimPushResult result;
  for (NodeId u = 0; u < f.graph.num_nodes(); u += 97) {
    ASSERT_TRUE(runner.QueryInto(u, &result).ok()) << "query " << u;
    ASSERT_TRUE(PushScratchIsZero(workspace)) << "after query " << u;
  }
}

TEST(WorkspaceReuseTest, SteadyStateQueriesAllocateNothing) {
  // The zero-allocation claim, enforced: after one warm-up pass over
  // the query rotation, QueryInto on a reused engine + result must not
  // touch the heap. This binary links the counting operator new.
  Graph g = testing_util::RandomGraph(200, 1600, 61);
  SimPushOptions options;
  options.epsilon = 0.05;
  options.walk_budget_cap = 5000;
  SimPushEngine engine(g, options);
  SimPushResult result;

  const std::vector<NodeId> rotation = {0, 31, 62, 93, 124, 155, 186};
  for (NodeId u : rotation) {
    ASSERT_TRUE(engine.QueryInto(u, &result).ok());
  }

  const AllocationStats before = GetAllocationStats();
  if (before.allocations == 0) {
    // Sanitizer builds interpose their own operator new/delete, which
    // unlinks the counting hook — the zero-alloc property can't be
    // observed, so skip instead of failing the whole sanitizer tier.
    GTEST_SKIP() << "alloc hook not active (sanitizer interposition?)";
  }
  for (int round = 0; round < 3; ++round) {
    for (NodeId u : rotation) {
      ASSERT_TRUE(engine.QueryInto(u, &result).ok());
    }
  }
  const AllocationStats after = GetAllocationStats();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "steady-state queries must perform zero heap allocations";
}

}  // namespace
}  // namespace simpush
