// Mutable directed graph supporting online edge insertion and deletion,
// stored as the rows changed since the last publish on top of the
// immutable CSR Graph that publish produced.
//
// This is the substrate for the paper's motivating scenario (§1): the
// underlying graph "can change frequently and unpredictably", so query
// processing must not depend on precomputation that is invalidated by
// updates. Index-free methods (SimPush, ProbeSim, TopSim) query a fresh
// snapshot directly; index-based methods (SLING, PRSim, READS, TSF) must
// re-run Prepare() after updates. bench_dynamic_updates measures exactly
// this asymmetry.

#ifndef SIMPUSH_GRAPH_DYNAMIC_GRAPH_H_
#define SIMPUSH_GRAPH_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace simpush {

/// A single edge update in a workload stream.
struct EdgeUpdate {
  enum class Kind : uint8_t { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  NodeId src = 0;
  NodeId dst = 0;
};

/// Mutable directed graph: a shared immutable base CSR plus an overlay
/// that holds, for each node touched since the last MarkClean(), its
/// out-row and/or in-row, and every node appended since then. Clean
/// rows are read straight from the base; the first write to a row
/// copies it out of the base. A clean master therefore costs O(1)
/// memory beyond the base it shares with whoever published it.
///
/// Complexity: AddEdge amortized O(1) (plus a one-time O(d) row copy);
/// RemoveEdge O(d_O(src) + d_I(dst)) (swap-with-back removal, order not
/// preserved); Snapshot O(n + m); SnapshotDelta patches only the dirty
/// rows into a copy of the base's arrays. Duplicate (parallel) edges
/// are permitted, matching multigraph edge lists; HasEdge reports any
/// occurrence.
class DynamicGraph {
 public:
  /// Creates an empty graph with `num_nodes` nodes, clean against the
  /// empty n-node base.
  explicit DynamicGraph(NodeId num_nodes = 0);

  /// A clean graph over `base`, which it shares rather than copies.
  explicit DynamicGraph(std::shared_ptr<const Graph> base);

  /// A clean graph over a private copy of `graph`.
  static DynamicGraph FromGraph(const Graph& graph) {
    return DynamicGraph(std::make_shared<const Graph>(graph));
  }

  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_edges() const { return num_edges_; }

  uint32_t OutDegree(NodeId v) const {
    return static_cast<uint32_t>(Row(v, kOut).size());
  }
  uint32_t InDegree(NodeId v) const {
    return static_cast<uint32_t>(Row(v, kIn).size());
  }

  /// Out-neighbors O(v): a base span for a clean row, the overlay row
  /// for a dirty one. Invalidated by any mutation of v's adjacency and
  /// by MarkClean().
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return Row(v, kOut);
  }

  /// Appends a node with no edges; returns its id.
  NodeId AddNode();

  /// Inserts the directed edge src -> dst. InvalidArgument when an
  /// endpoint is out of range.
  Status AddEdge(NodeId src, NodeId dst);

  /// Removes one occurrence of src -> dst. NotFound when absent.
  Status RemoveEdge(NodeId src, NodeId dst);

  /// True when at least one src -> dst edge exists. O(d_O(src)).
  bool HasEdge(NodeId src, NodeId dst) const;

  /// Applies a batch of updates ATOMICALLY: the whole batch is
  /// validated against the live adjacency first — including intra-batch
  /// effects, so an insert earlier in the batch can satisfy a later
  /// delete of the same edge — and only then applied. On failure the
  /// graph is left byte-identical to before the call (no update is
  /// applied, no row enters the overlay) and the status names the
  /// offending update's index. This is what lets the serving layer
  /// reject a bad network batch with a 4xx without the next hot swap
  /// silently publishing half of it.
  Status Apply(const std::vector<EdgeUpdate>& updates);

  /// Materializes an immutable CSR snapshot for querying. Adjacency is
  /// emitted canonically sorted (ascending per node, both directions):
  /// two DynamicGraphs holding the same edge multiset produce
  /// byte-identical snapshots regardless of the insert/delete history
  /// that built them — RemoveEdge's swap-with-back reordering never
  /// leaks into a snapshot. Registry hot swaps depend on this for
  /// reproducibility. This is the reference the delta build is tested
  /// against: every row is copied and sorted, then FromSortedCsr
  /// validates and derives the in-CSR.
  StatusOr<Graph> Snapshot() const;

  /// Incremental canonical snapshot: produces a Graph byte-identical to
  /// Snapshot(), but built by patching only the dirty rows into a copy
  /// of `base`'s CSR arrays — the clean runs between the sorted dirty
  /// ids are bulk-copied (memcpy-speed, no per-row sort/validate/
  /// scatter), dirty rows are re-sorted locally. `base` must hold the
  /// canonical bytes of this graph's base() — normally it IS *base().
  /// Its node/edge counts are checked against base() (FailedPrecondition
  /// on mismatch). Cost: an O(k) radix sort of the k dirty nodes +
  /// bandwidth-bound copy of clean runs + O(d log d) per dirty row, vs
  /// Snapshot()'s per-row copy+sort plus FromSortedCsr's O(m)
  /// validation and counting-sort scatter.
  StatusOr<Graph> SnapshotDelta(const Graph& base) const;

  /// Rebases onto `published`, the canonical snapshot of the current
  /// state that was just published, and clears the overlay: the master
  /// then shares that CSR instead of holding its own copy. The registry
  /// calls this after (and only after) a successful publish, so a
  /// failed publish keeps the overlay and the next rebuild still
  /// patches against the live generation.
  void MarkClean(std::shared_ptr<const Graph> published);

  /// The CSR the overlay sits on: the last snapshot passed to
  /// MarkClean(), or the graph this master was built over.
  const std::shared_ptr<const Graph>& base() const { return base_; }

  /// Distinct vertices whose out- or in-adjacency changed since the
  /// last MarkClean() (or construction), appended nodes included.
  /// O(1); mirrored into /v1/stats.
  size_t dirty_vertices() const { return dirty_.size(); }

  /// Approximate heap footprint of the overlay in bytes. The shared
  /// base is not counted; Graph::MemoryBytes reports it.
  size_t MemoryBytes() const;

 private:
  enum Side : int { kOut = 0, kIn = 1 };
  // A node's rows that differ from the base, indexed by Side; an empty
  // optional reads through to the base row.
  struct DirtyRows {
    NodeId node;
    std::optional<std::vector<NodeId>> rows[2];
  };

  static auto BaseRow(const Graph& g, NodeId v, Side side) {
    return side == kOut ? g.OutNeighbors(v) : g.InNeighbors(v);
  }
  std::span<const NodeId> Row(NodeId v, Side side) const;
  // The overlay's copy of v's row on `side`, copied from the base on
  // first write (which also gives v an overlay entry).
  std::vector<NodeId>& MutableRow(NodeId v, Side side);
  // Overlay slots in ascending node order, each packed as
  // (node << 32 | slot) so one integer sort orders them.
  std::vector<uint64_t> SortedSlots() const;
  // The overlay entry at position i of `order`, prefetching the one a
  // few positions ahead: node order is random order in dirty_.
  const DirtyRows& EntryAt(const std::vector<uint64_t>& order,
                           size_t i) const;
  // One CSR side of a delta snapshot.
  void BuildDeltaSide(Side side, const Graph& base,
                      const std::vector<uint64_t>& order,
                      std::vector<EdgeId>& offsets,
                      std::vector<NodeId>& flat) const;
  // Batch-wide validation for Apply: simulates the batch against the
  // live edge multiset without mutating anything.
  Status ValidateBatch(const std::vector<EdgeUpdate>& updates) const;
  // Occurrences of src->dst in the live out-adjacency. O(d_O(src)).
  EdgeId EdgeMultiplicity(NodeId src, NodeId dst) const;

  std::shared_ptr<const Graph> base_;
  // The overlay: touched nodes' rows in first-touch order, and each
  // node's slot in that list. Contiguous slots keep the snapshot
  // builds' walk over them cache-friendly.
  std::vector<DirtyRows> dirty_;
  std::unordered_map<NodeId, uint32_t> slot_of_;
  NodeId num_nodes_ = 0;
  EdgeId num_edges_ = 0;
};

/// Deterministically generates a mixed insert/delete stream against
/// `graph`: `num_updates` updates, a `delete_fraction` of which remove a
/// currently-present edge (sampled uniformly) while the rest insert a
/// fresh random non-self-loop edge. Mirrors the sliding-window update
/// workloads used by the dynamic-SimRank literature (READS, TSF).
/// With a single node no non-self-loop insert exists, so the stream
/// only deletes already-present edges and may end short of
/// `num_updates` once none remain.
std::vector<EdgeUpdate> GenerateUpdateStream(const Graph& graph,
                                             size_t num_updates,
                                             double delete_fraction,
                                             uint64_t seed);

}  // namespace simpush

#endif  // SIMPUSH_GRAPH_DYNAMIC_GRAPH_H_
