#include "simpush/topk.h"

#include <algorithm>

namespace simpush {

std::vector<TopKEntry> SelectTopK(const std::vector<double>& scores,
                                  NodeId u, size_t k) {
  std::vector<NodeId> order;
  order.reserve(scores.size());
  for (NodeId v = 0; v < scores.size(); ++v) {
    if (v != u && scores[v] > 0.0) order.push_back(v);
  }
  const size_t take = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&scores](NodeId a, NodeId b) {
                      if (scores[a] != scores[b]) {
                        return scores[a] > scores[b];
                      }
                      return a < b;
                    });
  std::vector<TopKEntry> entries(take);
  for (size_t i = 0; i < take; ++i) {
    entries[i] = {order[i], scores[order[i]]};
  }
  return entries;
}

StatusOr<TopKResult> QueryTopK(QueryRunner* runner, NodeId u, size_t k) {
  SIMPUSH_ASSIGN_OR_RETURN(SimPushResult full, runner->Query(u));
  return TopKResult{SelectTopK(full.scores, u, k), full.stats};
}

}  // namespace simpush
