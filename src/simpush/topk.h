// Top-k single-source SimRank on top of the SimPush engine: returns the
// k nodes most similar to u with their estimates. This is the query
// shape most applications (search, recommendation) actually consume,
// and one of the extensions §7 of the paper points to.

#ifndef SIMPUSH_SIMPUSH_TOPK_H_
#define SIMPUSH_SIMPUSH_TOPK_H_

#include <utility>
#include <vector>

#include "simpush/simpush.h"

namespace simpush {

/// One ranked result.
struct TopKEntry {
  NodeId node = kInvalidNode;
  double score = 0.0;
};

/// Result of a top-k query.
struct TopKResult {
  std::vector<TopKEntry> entries;  ///< Descending by score; size <= k.
  SimPushQueryStats stats;
};

/// The selection behind every top-k answer (QueryTopK and the serve
/// endpoints): the k highest-scoring nodes of u's score vector,
/// descending with ties to the smaller id. u itself and zero scores are
/// excluded, so fewer than k entries can come back.
std::vector<TopKEntry> SelectTopK(const std::vector<double>& scores,
                                  NodeId u, size_t k);

/// Answers a top-k single-source query (the query node itself, whose
/// s = 1 trivially, is excluded). An entry's score carries the same
/// ±ε guarantee as SimPushEngine::Query; ranking inversions are
/// therefore possible only between nodes within 2ε of each other.
StatusOr<TopKResult> QueryTopK(QueryRunner* runner, NodeId u, size_t k);

/// Facade convenience: runs on the engine's own runner.
inline StatusOr<TopKResult> QueryTopK(SimPushEngine* engine, NodeId u,
                                      size_t k) {
  return QueryTopK(&engine->runner(), u, k);
}

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_TOPK_H_
