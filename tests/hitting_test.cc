// Tests for Algorithm 3 (hitting probabilities between attention nodes
// within G_u), cross-checked against a brute-force DP over G_u.

#include <cmath>
#include <unordered_map>

#include "gtest/gtest.h"
#include "simpush/hitting.h"
#include "simpush/options.h"
#include "simpush/source_push.h"
#include "simpush/workspace.h"
#include "test_util.h"

namespace simpush {
namespace {

struct Fixture {
  Graph graph;
  SourceGraph gu;
  DerivedParams params;
  HittingTable table;
};

Fixture MakeFixture(const Graph& graph, NodeId u, double eps,
                    uint64_t seed = 1) {
  Fixture f{graph, {}, {}, {}};
  SimPushOptions options;
  options.epsilon = eps;
  options.walk_budget_cap = 20000;
  options.use_level_detection = false;
  f.params = ComputeDerivedParams(options);
  Rng rng(seed);
  QueryWorkspace workspace;
  EXPECT_TRUE(SourcePushInto(f.graph, u, options, f.params, &rng, &workspace,
                             &f.gu, nullptr).ok());
  ComputeHittingTable(f.graph, f.gu, f.params.sqrt_c, &workspace, &f.table);
  return f;
}

// Brute-force h̃^(i)(v, target) for a fixed attention occurrence: DP
// from the target's level down to v's level using Eq. 12 directly.
double BruteForceHitting(const Graph& graph, const SourceGraph& gu,
                         uint32_t from_level, NodeId from_node,
                         AttentionId target, double sqrt_c) {
  const AttentionNode& t = gu.attention_nodes()[target];
  if (t.level < from_level) return 0.0;
  if (t.level == from_level) {
    return t.node == from_node ? 1.0 : 0.0;
  }
  // values[node] = h̃^(t.level - l)(node, target) for nodes at level l.
  std::unordered_map<NodeId, double> values;
  values.emplace(t.node, 1.0);
  for (uint32_t l = t.level; l > from_level; --l) {
    std::unordered_map<NodeId, double> next;
    for (NodeId node = 0; node < graph.num_nodes(); ++node) {
      if (!gu.Contains(l - 1, node)) continue;
      const uint32_t deg = graph.InDegree(node);
      if (deg == 0) continue;
      double acc = 0;
      for (NodeId vp : graph.InNeighbors(node)) {
        // vp is at level l of G_u iff it carries probability mass there.
        if (!gu.Contains(l, vp)) continue;
        auto it = values.find(vp);
        if (it != values.end()) acc += it->second;
      }
      if (acc != 0.0) next.emplace(node, sqrt_c * acc / deg);
    }
    values = std::move(next);
  }
  auto it = values.find(from_node);
  return it == values.end() ? 0.0 : it->second;
}

TEST(HittingTest, MatchesBruteForceOnFixtureGraph) {
  Graph g = testing_util::MakeFixtureGraph();
  Fixture f = MakeFixture(g, 0, 0.02);
  const HittingTable& table = f.table;
  for (AttentionId source = 0; source < f.gu.num_attention(); ++source) {
    const AttentionNode& w = f.gu.attention_nodes()[source];
    for (AttentionId target = 0; target < f.gu.num_attention(); ++target) {
      const AttentionNode& t = f.gu.attention_nodes()[target];
      if (t.level <= w.level) continue;
      const double expected = BruteForceHitting(
          f.graph, f.gu, w.level, w.node, target, f.params.sqrt_c);
      EXPECT_NEAR(table.Probability(w.level, w.node, target), expected, 1e-10)
          << "from (" << w.level << "," << w.node << ") to (" << t.level
          << "," << t.node << ")";
    }
  }
}

TEST(HittingTest, MatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed : {51u, 52u, 53u}) {
    Graph g = testing_util::RandomGraph(80, 500, seed);
    Fixture f = MakeFixture(g, static_cast<NodeId>(seed % 80), 0.05, seed);
    const HittingTable& table = f.table;
    for (AttentionId source = 0; source < f.gu.num_attention(); ++source) {
      const AttentionNode& w = f.gu.attention_nodes()[source];
      for (AttentionId target = 0; target < f.gu.num_attention(); ++target) {
        const AttentionNode& t = f.gu.attention_nodes()[target];
        if (t.level <= w.level) continue;
        const double expected = BruteForceHitting(
            f.graph, f.gu, w.level, w.node, target, f.params.sqrt_c);
        EXPECT_NEAR(table.Probability(w.level, w.node, target), expected,
                    1e-10);
      }
    }
  }
}

TEST(HittingTest, SelfEntriesPresentForDeepAttention) {
  Graph g = testing_util::MakeFixtureGraph();
  Fixture f = MakeFixture(g, 0, 0.02);
  const HittingTable& table = f.table;
  for (AttentionId id = 0; id < f.gu.num_attention(); ++id) {
    const AttentionNode& w = f.gu.attention_nodes()[id];
    if (w.level >= 2) {
      EXPECT_DOUBLE_EQ(table.Probability(w.level, w.node, id), 1.0);
    }
  }
}

TEST(HittingTest, VectorsSortedById) {
  Graph g = testing_util::RandomGraph(60, 400, 61);
  Fixture f = MakeFixture(g, 3, 0.05, 61);
  const HittingTable& table = f.table;
  for (uint32_t level = 1; level <= f.gu.max_level(); ++level) {
    for (NodeId node = 0; node < g.num_nodes(); ++node) {
      if (!f.gu.Contains(level, node)) continue;
      const HittingVector& vec = table.VectorAt(level, node);
      for (size_t i = 1; i < vec.size(); ++i) {
        EXPECT_LT(vec[i - 1].first, vec[i].first);
      }
      for (const auto& [target, p] : vec) {
        (void)target;
        EXPECT_GT(p, 0.0);
        EXPECT_LE(p, 1.0 + 1e-12);
      }
    }
  }
}

TEST(HittingTest, EmptyWhenMaxLevelBelowTwo) {
  // Star spokes at level 1 only: no level-2+ targets, table empty.
  auto star = GenerateStar(5);
  ASSERT_TRUE(star.ok());
  SimPushOptions options;
  options.epsilon = 0.3;  // Big epsilon: L* is tiny.
  options.use_level_detection = false;
  const DerivedParams params = ComputeDerivedParams(options);
  Rng rng(1);
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(*star, 0, options, params, &rng, &workspace, &gu,
                             nullptr).ok());
  if (gu.max_level() < 2) {
    HittingTable table;
    ComputeHittingTable(*star, gu, params.sqrt_c, &workspace, &table);
    EXPECT_EQ(table.NumVectors(), 0u);
    EXPECT_EQ(table.NumEntries(), 0u);
  }
}

TEST(HittingTest, DanglingAttentionNodeStillExportsSelfEntry) {
  // Regression test: an attention node with no in-neighbors (common in
  // Barabási–Albert tails) must still publish its h̃^(0) = 1 self entry
  // so shallower nodes can compute meeting probabilities through it.
  //   4 -> 3 -> 2 -> 1 -> 0, node 4 dangling; query u = 0 makes every
  //   chain node an attention node at its level.
  Graph g = testing_util::MakeGraph(
      5, {{4, 3}, {3, 2}, {2, 1}, {1, 0}});
  Fixture f = MakeFixture(g, 0, 0.05);
  ASSERT_GE(f.gu.max_level(), 4u);
  const HittingTable& table = f.table;
  AttentionId deep_id;
  ASSERT_TRUE(f.gu.LookupAttention(4, 4, &deep_id));
  // Node 3 at level 3 must see node 4's self entry one step away.
  EXPECT_NEAR(table.Probability(3, 3, deep_id), f.params.sqrt_c, 1e-12);
  // And the dangling node's own self entry exists.
  EXPECT_DOUBLE_EQ(table.Probability(4, 4, deep_id), 1.0);
}

TEST(HittingTest, ProbabilityLookupMissingReturnsZero) {
  Graph g = testing_util::MakeFixtureGraph();
  Fixture f = MakeFixture(g, 0, 0.02);
  const HittingTable& table = f.table;
  EXPECT_EQ(table.Probability(99, 0, 0), 0.0);
}

}  // namespace
}  // namespace simpush
