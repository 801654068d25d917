// Connectivity utilities: weakly connected components and reverse
// reachability. SimRank is zero across weak components; tests use these
// to assert no cross-component score leakage. No tool or example calls
// them.

#ifndef SIMPUSH_GRAPH_COMPONENTS_H_
#define SIMPUSH_GRAPH_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace simpush {

/// Weakly-connected-component labelling.
struct ComponentInfo {
  /// component_of[v] in [0, num_components); labels are ordered by the
  /// smallest node id contained in the component.
  std::vector<uint32_t> component_of;
  uint32_t num_components = 0;
  /// Size of each component, label-indexed.
  std::vector<NodeId> sizes;
};

/// Computes weakly connected components (treating edges as undirected)
/// with an iterative BFS. O(n + m).
ComponentInfo WeaklyConnectedComponents(const Graph& graph);

/// Nodes reachable from `source` by following in-edges (the region a
/// √c-walk from `source` can visit), up to `max_depth` steps
/// (max_depth = 0 means unbounded). Returns a sorted node list.
std::vector<NodeId> InReachableSet(const Graph& graph, NodeId source,
                                   uint32_t max_depth = 0);

/// Nodes v that can possibly have s(u, v) > 0: those whose in-reachable
/// region (walk region) intersects u's at matching depths is a superset
/// of this cheap test — we return nodes whose walk region intersects
/// u's at all, which is a sound overapproximation used for candidate
/// pruning.
std::vector<NodeId> PossiblySimilarCandidates(const Graph& graph, NodeId u,
                                              uint32_t max_depth);

}  // namespace simpush

#endif  // SIMPUSH_GRAPH_COMPONENTS_H_
