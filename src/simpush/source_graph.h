// The source graph G_u produced by Source-Push (§3, §4.1): a level-
// structured view of the nodes reached while propagating hitting
// probabilities from the query node u. Level 0 holds u only; level ℓ
// holds every node v with h^(ℓ)(u, v) > 0; G_u edges run from level ℓ+1
// (in-neighbors) to level ℓ, and for any node at level ℓ < L its G_u
// in-neighborhood equals its full in-neighborhood in G.
//
// G_u therefore does not store explicit edge lists: the adjacency of G
// restricted to consecutive level sets *is* the G_u adjacency, which is
// how Algorithms 3–4 traverse it.
//
// Algorithms 3–5 read only two things from G_u: which nodes sit on each
// level, and the attention occurrences (h ≥ ε_h) with their h. That is
// all it stores: one flat membership bitmask of ⌈n/64⌉ words per level
// 0..L (O(L·n/8) bytes, O(1) Contains), and the attention occurrences,
// appended level by level in ascending node order. That order is the
// one rule: ids of a level are contiguous and sorted by node, so lookups
// binary search and no consumer sorts. Buffers keep their capacity
// across Reset(), so a long-lived engine rebuilds G_u every query
// without touching the heap.

#ifndef SIMPUSH_SIMPUSH_SOURCE_GRAPH_H_
#define SIMPUSH_SIMPUSH_SOURCE_GRAPH_H_

#include <cstdint>
#include <ranges>
#include <vector>

#include "graph/graph.h"

namespace simpush {

/// Dense id for an attention node *occurrence*: the same graph node can
/// be an attention node on several levels (Fig. 1(a)), each occurrence
/// getting its own id.
using AttentionId = uint32_t;

/// One attention-node occurrence.
struct AttentionNode {
  NodeId node = kInvalidNode;
  uint32_t level = 0;       ///< ℓ in [1, L].
  double hitting_prob = 0;  ///< h^(ℓ)(u, node), >= ε_h by definition.
};

/// Level-structured source graph G_u plus the attention sets A_u^(ℓ).
class SourceGraph {
 public:
  /// Max level L (levels are 0..L; level 0 is the query node).
  uint32_t max_level() const { return max_level_; }

  /// Empties G_u for an n-node graph with levels 0..max_level: zeroes
  /// the (L+1)·⌈n/64⌉ membership words and drops every attention
  /// occurrence, keeping all capacity.
  void Reset(uint32_t max_level, NodeId num_nodes);

  /// Membership words of level ℓ ≤ L: bit v%64 of word v/64 is set iff v
  /// is on level ℓ. Source-Push writes them directly.
  uint64_t* LevelBits(uint32_t level) { return &bits_[level * words_]; }

  /// True iff v is on level ℓ of G_u. O(1).
  bool Contains(uint32_t level, NodeId v) const {
    return level <= max_level_ && (v >> 6) < words_ &&
           (bits_[level * words_ + (v >> 6)] >> (v & 63) & 1) != 0;
  }

  /// Registers an attention-node occurrence; returns its dense id.
  /// Occurrences must arrive level by level, ascending by node within a
  /// level.
  AttentionId AddAttentionNode(NodeId node, uint32_t level, double h);

  /// All attention occurrences, id-indexed.
  const std::vector<AttentionNode>& attention_nodes() const {
    return attention_;
  }
  size_t num_attention() const { return attention_.size(); }

  /// Attention ids on level ℓ (A_u^(ℓ)), ascending by node.
  auto AttentionOnLevel(uint32_t level) const {
    return std::views::iota(LevelBegin(level), LevelBegin(level + 1));
  }

  /// Dense attention id of (level, node); returns false if not attention.
  bool LookupAttention(uint32_t level, NodeId node, AttentionId* id) const;

 private:
  AttentionId LevelBegin(uint32_t level) const {
    return level < level_begin_.size() ? level_begin_[level]
                                       : static_cast<AttentionId>(
                                             attention_.size());
  }

  uint32_t max_level_ = 0;
  size_t words_ = 0;             // ⌈n/64⌉ membership words per level.
  std::vector<uint64_t> bits_;   // Level ℓ at [ℓ·words_, (ℓ+1)·words_).
  std::vector<AttentionNode> attention_;
  // level_begin_[ℓ]: first attention id on level ℓ (ids of level ℓ end
  // where level ℓ+1 begins); sized L+2 by Reset.
  std::vector<AttentionId> level_begin_;
};

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_SOURCE_GRAPH_H_
