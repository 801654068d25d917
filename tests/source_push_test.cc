// Tests for Source-Push (Algorithm 2): derived parameters, propagated
// hitting probabilities vs. the exact DP reference, G_u structure, and
// attention-node identification.

#include <cmath>

#include "gtest/gtest.h"
#include "simpush/options.h"
#include "simpush/source_push.h"
#include "simpush/workspace.h"
#include "test_util.h"
#include "walk/walk_stats.h"

namespace simpush {
namespace {

SimPushOptions FastOptions(double eps = 0.05) {
  SimPushOptions options;
  options.epsilon = eps;
  options.walk_budget_cap = 20000;
  return options;
}

TEST(DerivedParamsTest, MatchesFormulas) {
  SimPushOptions options;
  options.epsilon = 0.02;
  options.decay = 0.6;
  options.delta = 1e-4;
  const DerivedParams p = ComputeDerivedParams(options);
  const double sqrt_c = std::sqrt(0.6);
  EXPECT_NEAR(p.sqrt_c, sqrt_c, 1e-12);
  EXPECT_NEAR(p.eps_h, (1 - sqrt_c) / (3 * sqrt_c) * 0.02, 1e-12);
  const uint32_t expected_l_star = static_cast<uint32_t>(
      std::floor(std::log(1 / p.eps_h) / std::log(1 / sqrt_c)));
  EXPECT_EQ(p.l_star, expected_l_star);
  EXPECT_EQ(p.max_attention, static_cast<uint64_t>(std::floor(
                                 sqrt_c / ((1 - sqrt_c) * p.eps_h))));
}

TEST(DerivedParamsTest, WalkBudgetCapApplies) {
  SimPushOptions options;
  options.epsilon = 0.02;
  const DerivedParams uncapped = ComputeDerivedParams(options);
  options.walk_budget_cap = 1000;
  const DerivedParams capped = ComputeDerivedParams(options);
  EXPECT_GT(uncapped.num_walks, capped.num_walks);
  EXPECT_EQ(capped.num_walks, 1000u);
  // Threshold shrinks proportionally with the walk count.
  EXPECT_LT(capped.level_count_threshold, uncapped.level_count_threshold);
}

TEST(DerivedParamsTest, SmallerEpsilonDeeperHorizon) {
  SimPushOptions coarse = FastOptions(0.1);
  SimPushOptions fine = FastOptions(0.005);
  EXPECT_LT(ComputeDerivedParams(coarse).l_star,
            ComputeDerivedParams(fine).l_star);
  EXPECT_LT(ComputeDerivedParams(coarse).max_attention,
            ComputeDerivedParams(fine).max_attention);
}

TEST(SourcePushTest, MembershipMatchesExactDP) {
  // Level ℓ of G_u holds exactly the nodes with h^(ℓ)(u, v) > 0.
  Graph g = testing_util::MakeFixtureGraph();
  SimPushOptions options = FastOptions();
  options.use_level_detection = false;  // Explore all L* levels.
  const DerivedParams params = ComputeDerivedParams(options);
  Rng rng(1);
  SourcePushStats stats;
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(g, 0, options, params, &rng, &workspace, &gu,
                             &stats).ok());
  auto exact = ExactHittingProbabilities(g, 0, gu.max_level(), params.sqrt_c);
  size_t occurrences = 0;
  for (uint32_t level = 0; level <= gu.max_level(); ++level) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(gu.Contains(level, v), exact[level][v] > 0)
          << "level " << level << " node " << v;
      if (level >= 1 && gu.Contains(level, v)) ++occurrences;
    }
  }
  EXPECT_EQ(stats.gu_node_occurrences, occurrences);
  EXPECT_FALSE(gu.Contains(gu.max_level() + 1, 0));
}

TEST(SourcePushTest, AttentionNodesAreExactlyThoseAboveThreshold) {
  // Attention occurrences carry the exact h^(ℓ)(u, w), and a member is
  // one iff that h reaches ε_h. ε = 0.005 makes every member of levels
  // 1-3 an attention node; deeper levels may hold members below ε_h.
  Graph g = testing_util::MakeFixtureGraph();
  SimPushOptions options = FastOptions(0.005);
  options.use_level_detection = false;
  const DerivedParams params = ComputeDerivedParams(options);
  Rng rng(2);
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(g, 2, options, params, &rng, &workspace, &gu,
                             nullptr).ok());
  auto exact = ExactHittingProbabilities(g, 2, gu.max_level(), params.sqrt_c);
  for (uint32_t level = 1; level <= gu.max_level(); ++level) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      AttentionId id;
      const bool is_attention = gu.LookupAttention(level, v, &id);
      EXPECT_EQ(is_attention, exact[level][v] >= params.eps_h)
          << "level " << level << " node " << v << " h=" << exact[level][v];
      if (is_attention) {
        EXPECT_TRUE(gu.Contains(level, v));
        const AttentionNode& a = gu.attention_nodes()[id];
        EXPECT_EQ(a.node, v);
        EXPECT_EQ(a.level, level);
        EXPECT_NEAR(a.hitting_prob, exact[level][v], 1e-12);
      }
    }
  }
  for (uint32_t level = 1; level <= 3; ++level) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      AttentionId id;
      EXPECT_EQ(gu.Contains(level, v), gu.LookupAttention(level, v, &id))
          << "level " << level << " node " << v;
    }
  }
}

TEST(SourcePushTest, AttentionIdsInLevelThenNodeOrder) {
  // The one ordering rule of G_u: ids ascend level by level and, within
  // a level, by node; AttentionOnLevel returns exactly a level's ids.
  Graph g = testing_util::RandomGraph(300, 2400, 45);
  SimPushOptions options = FastOptions(0.01);
  const DerivedParams params = ComputeDerivedParams(options);
  Rng rng(9);
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(g, 5, options, params, &rng, &workspace, &gu,
                             nullptr).ok());
  ASSERT_GT(gu.num_attention(), 1u);
  const auto& atts = gu.attention_nodes();
  for (AttentionId id = 1; id < atts.size(); ++id) {
    const bool ordered =
        atts[id - 1].level < atts[id].level ||
        (atts[id - 1].level == atts[id].level &&
         atts[id - 1].node < atts[id].node);
    EXPECT_TRUE(ordered) << "id " << id;
  }
  size_t seen = 0;
  for (uint32_t level = 0; level <= gu.max_level() + 1; ++level) {
    for (AttentionId id : gu.AttentionOnLevel(level)) {
      EXPECT_EQ(atts[id].level, level);
      ++seen;
    }
  }
  EXPECT_EQ(seen, atts.size());
}

TEST(SourcePushTest, AttentionCountWithinLemma2Bound) {
  Graph g = testing_util::RandomGraph(300, 2400, 41);
  SimPushOptions options = FastOptions(0.02);
  const DerivedParams params = ComputeDerivedParams(options);
  Rng rng(3);
  SourcePushStats stats;
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(g, 7, options, params, &rng, &workspace, &gu,
                             &stats).ok());
  EXPECT_LE(gu.num_attention(), params.max_attention);
  EXPECT_LE(gu.max_level(), params.l_star);
}

TEST(SourcePushTest, LevelMassBoundedBySqrtCPower) {
  // The exact mass of each level's members is at most √c^ℓ, and the
  // attention h stored on the level is part of it.
  Graph g = testing_util::RandomGraph(200, 1500, 43);
  SimPushOptions options = FastOptions();
  options.use_level_detection = false;
  const DerivedParams params = ComputeDerivedParams(options);
  Rng rng(4);
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(g, 11, options, params, &rng, &workspace, &gu,
                             nullptr).ok());
  auto exact = ExactHittingProbabilities(g, 11, gu.max_level(), params.sqrt_c);
  for (uint32_t level = 0; level <= gu.max_level(); ++level) {
    double mass = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (gu.Contains(level, v)) mass += exact[level][v];
    }
    double attention_mass = 0;
    for (AttentionId id : gu.AttentionOnLevel(level)) {
      attention_mass += gu.attention_nodes()[id].hitting_prob;
    }
    EXPECT_LE(mass, std::pow(params.sqrt_c, level) + 1e-9);
    EXPECT_LE(attention_mass, mass + 1e-9);
  }
}

TEST(SourcePushTest, DanglingQueryNodeYieldsRootOnly) {
  // Node 0 has no in-neighbors: G_u is only the root; no attention nodes.
  Graph g = testing_util::MakeGraph(3, {{0, 1}, {1, 2}});
  SimPushOptions options = FastOptions();
  const DerivedParams params = ComputeDerivedParams(options);
  Rng rng(5);
  SourcePushStats stats;
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(g, 0, options, params, &rng, &workspace, &gu,
                             &stats).ok());
  EXPECT_EQ(gu.num_attention(), 0u);
  EXPECT_EQ(stats.gu_node_occurrences, 0u);
  EXPECT_TRUE(gu.Contains(0, 0));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_FALSE(gu.Contains(1, v)) << "node " << v;
  }
}

TEST(SourcePushTest, RejectsOutOfRangeQuery) {
  Graph g = testing_util::MakeFixtureGraph();
  SimPushOptions options = FastOptions();
  const DerivedParams params = ComputeDerivedParams(options);
  Rng rng(6);
  QueryWorkspace workspace;
  SourceGraph gu;
  EXPECT_FALSE(SourcePushInto(g, 100, options, params, &rng, &workspace, &gu,
                              nullptr)
                   .ok());
}

TEST(SourcePushTest, LevelDetectionNeverExceedsLStar) {
  Graph g = testing_util::RandomGraph(100, 700, 47);
  SimPushOptions options = FastOptions(0.1);
  const DerivedParams params = ComputeDerivedParams(options);
  for (NodeId u = 0; u < 10; ++u) {
    Rng rng(100 + u);
    SourcePushStats stats;
    QueryWorkspace workspace;
    SourceGraph gu;
    ASSERT_TRUE(SourcePushInto(g, u, options, params, &rng, &workspace, &gu,
                               &stats).ok());
    EXPECT_LE(stats.detected_level, params.l_star);
    EXPECT_GE(stats.detected_level, 1u);
    EXPECT_EQ(stats.num_attention, gu.num_attention());
  }
}

TEST(SourcePushTest, CycleGraphKeepsFullMass) {
  // On a directed cycle each node has exactly one in-neighbor, so the
  // pushed mass at level l concentrates on a single node: √c^l ≥ ε_h for
  // every l ≤ L*, so each level's one member is an attention node.
  auto g = GenerateCycle(12);
  ASSERT_TRUE(g.ok());
  SimPushOptions options = FastOptions();
  options.use_level_detection = false;
  const DerivedParams params = ComputeDerivedParams(options);
  Rng rng(7);
  SourcePushStats stats;
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(*g, 0, options, params, &rng, &workspace, &gu,
                             &stats).ok());
  EXPECT_EQ(stats.gu_node_occurrences, gu.max_level());
  ASSERT_EQ(gu.num_attention(), gu.max_level());
  for (uint32_t level = 1; level <= gu.max_level(); ++level) {
    const NodeId expected = (0 + 12 - (level % 12)) % 12;
    for (NodeId v = 0; v < 12; ++v) {
      EXPECT_EQ(gu.Contains(level, v), v == expected)
          << "level " << level << " node " << v;
    }
    AttentionId id;
    ASSERT_TRUE(gu.LookupAttention(level, expected, &id));
    EXPECT_NEAR(gu.attention_nodes()[id].hitting_prob,
                std::pow(params.sqrt_c, level), 1e-12);
  }
}

TEST(SourceGraphTest, ResetClearsMembershipAndAttention) {
  // A reused G_u (the pooled-workspace case) must not leak members or
  // attention from a previous, deeper query.
  Graph g = testing_util::MakeFixtureGraph();
  SimPushOptions options = FastOptions();
  options.use_level_detection = false;
  const DerivedParams params = ComputeDerivedParams(options);
  QueryWorkspace workspace;
  SourceGraph gu;
  Rng rng(8);
  ASSERT_TRUE(SourcePushInto(g, 0, options, params, &rng, &workspace, &gu,
                             nullptr)
                  .ok());
  ASSERT_GT(gu.num_attention(), 0u);
  gu.Reset(2, g.num_nodes());
  EXPECT_EQ(gu.max_level(), 2u);
  EXPECT_EQ(gu.num_attention(), 0u);
  for (uint32_t level = 0; level <= 3; ++level) {
    EXPECT_TRUE(gu.AttentionOnLevel(level).empty());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_FALSE(gu.Contains(level, v)) << "level " << level << " node " << v;
    }
  }
  EXPECT_FALSE(SourceGraph().Contains(0, 0));
}

}  // namespace
}  // namespace simpush
