#include "simpush/source_graph.h"

#include <algorithm>

namespace simpush {

void SourceGraph::Reset(uint32_t max_level, NodeId num_nodes) {
  max_level_ = max_level;
  words_ = (static_cast<size_t>(num_nodes) + 63) / 64;
  bits_.assign((max_level + 1) * words_, 0);
  attention_.clear();
  level_begin_.assign(max_level + 2, 0);
}

AttentionId SourceGraph::AddAttentionNode(NodeId node, uint32_t level,
                                          double h) {
  const AttentionId id = static_cast<AttentionId>(attention_.size());
  attention_.push_back({node, level, h});
  // Every deeper level now begins after this id.
  for (uint32_t l = level + 1; l < level_begin_.size(); ++l) {
    level_begin_[l] = id + 1;
  }
  return id;
}

bool SourceGraph::LookupAttention(uint32_t level, NodeId node,
                                  AttentionId* id) const {
  const auto first = attention_.begin() + LevelBegin(level);
  const auto last = attention_.begin() + LevelBegin(level + 1);
  const auto it = std::lower_bound(
      first, last, node,
      [](const AttentionNode& a, NodeId n) { return a.node < n; });
  if (it == last || it->node != node) return false;
  *id = static_cast<AttentionId>(it - attention_.begin());
  return true;
}

}  // namespace simpush
