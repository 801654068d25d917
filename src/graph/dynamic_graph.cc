#include "graph/dynamic_graph.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <unordered_map>

#include "common/rng.h"

namespace simpush {

namespace {

// Removes one occurrence of `value` from `vec` by swapping with the back.
// Returns false when absent.
bool SwapRemove(std::vector<NodeId>& vec, NodeId value) {
  auto it = std::find(vec.begin(), vec.end(), value);
  if (it == vec.end()) return false;
  *it = vec.back();
  vec.pop_back();
  return true;
}

// (src, dst) packed into one word for the batch-validation map.
uint64_t EdgeKey(NodeId src, NodeId dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

}  // namespace

DynamicGraph DynamicGraph::FromGraph(const Graph& graph) {
  DynamicGraph dynamic(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    auto out = graph.OutNeighbors(v);
    dynamic.out_[v].assign(out.begin(), out.end());
    auto in = graph.InNeighbors(v);
    dynamic.in_[v].assign(in.begin(), in.end());
  }
  dynamic.num_edges_ = graph.num_edges();
  // Clean relative to `graph`: when it is a canonical snapshot (the
  // registry's case), SnapshotDelta can immediately patch against it.
  dynamic.MarkClean();
  return dynamic;
}

void DynamicGraph::MarkOutDirty(NodeId v) {
  if (dirty_out_[v] == 0) {
    if (dirty_in_[v] == 0) ++dirty_count_;
    dirty_out_[v] = 1;
  }
}

void DynamicGraph::MarkInDirty(NodeId v) {
  if (dirty_in_[v] == 0) {
    if (dirty_out_[v] == 0) ++dirty_count_;
    dirty_in_[v] = 1;
  }
}

NodeId DynamicGraph::AddNode() {
  out_.emplace_back();
  in_.emplace_back();
  // A node appended past the clean point has no base row to copy; it is
  // dirty in both directions until the next MarkClean().
  dirty_out_.push_back(1);
  dirty_in_.push_back(1);
  ++dirty_count_;
  return static_cast<NodeId>(out_.size() - 1);
}

Status DynamicGraph::AddEdge(NodeId src, NodeId dst) {
  if (src >= num_nodes() || dst >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  out_[src].push_back(dst);
  in_[dst].push_back(src);
  ++num_edges_;
  MarkOutDirty(src);
  MarkInDirty(dst);
  return Status::OK();
}

Status DynamicGraph::RemoveEdge(NodeId src, NodeId dst) {
  if (src >= num_nodes() || dst >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (!SwapRemove(out_[src], dst)) {
    return Status::NotFound("edge not present");
  }
  // The in-list must hold a matching entry; CSR invariants guarantee it.
  SwapRemove(in_[dst], src);
  --num_edges_;
  MarkOutDirty(src);
  MarkInDirty(dst);
  return Status::OK();
}

bool DynamicGraph::HasEdge(NodeId src, NodeId dst) const {
  if (src >= num_nodes()) return false;
  const auto& neighbors = out_[src];
  return std::find(neighbors.begin(), neighbors.end(), dst) !=
         neighbors.end();
}

EdgeId DynamicGraph::EdgeMultiplicity(NodeId src, NodeId dst) const {
  return static_cast<EdgeId>(
      std::count(out_[src].begin(), out_[src].end(), dst));
}

Status DynamicGraph::ValidateBatch(
    const std::vector<EdgeUpdate>& updates) const {
  // Simulate the batch against the live edge multiset: per (src, dst)
  // key, track how many copies would be available at each step. The
  // live count is loaded lazily on first touch, so validation costs
  // O(sum of touched out-degrees), not O(m).
  std::unordered_map<uint64_t, EdgeId> available;
  available.reserve(updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    const EdgeUpdate& update = updates[i];
    Status status = Status::OK();
    if (update.src >= num_nodes() || update.dst >= num_nodes()) {
      status = Status::InvalidArgument("edge endpoint out of range");
    } else {
      auto [it, first_touch] =
          available.try_emplace(EdgeKey(update.src, update.dst), 0);
      if (first_touch) it->second = EdgeMultiplicity(update.src, update.dst);
      if (update.kind == EdgeUpdate::Kind::kInsert) {
        ++it->second;
      } else if (it->second == 0) {
        status = Status::NotFound("edge not present");
      } else {
        --it->second;
      }
    }
    if (!status.ok()) {
      return Status(status.code(), "update " + std::to_string(i) +
                                       " rejected (no updates applied): " +
                                       std::string(status.message()));
    }
  }
  return Status::OK();
}

Status DynamicGraph::Apply(const std::vector<EdgeUpdate>& updates) {
  // Validate-then-mutate: a rejected batch must leave the graph (and
  // its dirty tracking) byte-identical to before the call, so the
  // serving layer can 4xx a bad batch without the next hot swap
  // publishing a half-applied prefix.
  SIMPUSH_RETURN_NOT_OK(ValidateBatch(updates));
  for (const EdgeUpdate& update : updates) {
    const Status status = update.kind == EdgeUpdate::Kind::kInsert
                              ? AddEdge(update.src, update.dst)
                              : RemoveEdge(update.src, update.dst);
    if (!status.ok()) {
      return Status::Internal("validated update failed to apply: " +
                              std::string(status.message()));
    }
  }
  return Status::OK();
}

StatusOr<Graph> DynamicGraph::Snapshot() const {
  // Canonical snapshot: RemoveEdge's swap-with-back removal makes the
  // live adjacency order a function of the whole update history, so the
  // CSR is built with every per-node run sorted — two graphs holding the
  // same edge multiset snapshot to byte-identical CSRs no matter which
  // insert/delete sequence produced them. That is what makes registry
  // hot swaps reproducible (and walk indices meaningful across swaps).
  // Parallel edges are kept: the dynamic stream may legitimately contain
  // duplicates and deleting one copy must leave the other.
  const NodeId n = num_nodes();
  std::vector<EdgeId> offsets(static_cast<size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + out_[v].size();
  }
  std::vector<NodeId> targets(static_cast<size_t>(num_edges_));
  for (NodeId v = 0; v < n; ++v) {
    const auto begin = targets.begin() + static_cast<ptrdiff_t>(offsets[v]);
    std::copy(out_[v].begin(), out_[v].end(), begin);
    std::sort(begin, targets.begin() + static_cast<ptrdiff_t>(offsets[v + 1]));
  }
  return Graph::FromSortedCsr(n, std::move(offsets), std::move(targets));
}

namespace {

// Builds one CSR side of a delta snapshot. Clean rows (not dirty and
// present in the base) are bulk-copied as maximal runs straight out of
// the base's flat array — their content is already canonical and their
// degrees are unchanged, so run lengths line up exactly. Dirty rows and
// rows past the base's node count are copied from the live adjacency
// and sorted locally, restoring the canonical order that swap-with-back
// deletions scrambled.
// `base_row_begin(v)` is the flat index of v's base row (valid for
// v in [0, base_n], so run lengths come from adjacent differences);
// `base_row_data(v)` is the pointer to its first element.
template <typename RowBeginFn, typename RowDataFn>
void BuildDeltaSide(NodeId n, NodeId base_n, EdgeId total_edges,
                    const std::vector<std::vector<NodeId>>& adj,
                    const std::vector<uint8_t>& dirty,
                    RowBeginFn base_row_begin, RowDataFn base_row_data,
                    std::vector<EdgeId>& offsets,
                    std::vector<NodeId>& flat) {
  offsets.resize(static_cast<size_t>(n) + 1);
  offsets[0] = 0;
  // Append into reserved capacity instead of resize-then-overwrite:
  // the flat array is written exactly once (no zero-fill pass), which
  // matters when the whole point is to be bandwidth-bound on ~m words.
  flat.clear();
  flat.reserve(total_edges);
  NodeId v = 0;
  while (v < n) {
    if (v < base_n && dirty[v] == 0) {
      NodeId w = v + 1;
      while (w < base_n && dirty[w] == 0) ++w;
      // Rows are contiguous in the base's flat array, so the whole
      // clean run [v, w) is one copy; its offsets are the base's,
      // shifted by however much the dirty rows before it grew/shrank.
      const NodeId* row = base_row_data(v);
      flat.insert(flat.end(), row, row + (base_row_begin(w) - base_row_begin(v)));
      const EdgeId shift = offsets[v] - base_row_begin(v);
      for (NodeId u = v; u < w; ++u) {
        offsets[u + 1] = base_row_begin(u + 1) + shift;
      }
      v = w;
    } else {
      flat.insert(flat.end(), adj[v].begin(), adj[v].end());
      std::sort(flat.end() - static_cast<ptrdiff_t>(adj[v].size()),
                flat.end());
      offsets[v + 1] = offsets[v] + adj[v].size();
      ++v;
    }
  }
}

}  // namespace

StatusOr<Graph> DynamicGraph::SnapshotDelta(const Graph& base) const {
  // Cheap base check: `base` must be the canonical snapshot of this
  // graph at the last MarkClean() point. Node/edge counts recorded then
  // catch every registry-level misuse (stale generation, wrong tenant's
  // graph after a resize); byte-level agreement of clean rows is the
  // documented contract, enforced end-to-end by the randomized
  // delta-vs-full property suite.
  if (base.num_nodes() != clean_nodes_ || base.num_edges() != clean_edges_) {
    return Status::FailedPrecondition(
        "delta base does not match the last marked-clean snapshot");
  }
  const NodeId n = num_nodes();
  const NodeId base_n = clean_nodes_;

  std::vector<EdgeId> out_offsets, in_offsets;
  std::vector<NodeId> out_targets, in_sources;
  // The base's rows are contiguous per direction, so OutRowBegin /
  // InRowBegin plus the first row's data pointer address the whole flat
  // array; clean-run copies never cross a dirty row's boundary.
  BuildDeltaSide(
      n, base_n, num_edges_, out_, dirty_out_,
      [&base](NodeId v) { return base.OutRowBegin(v); },
      [&base](NodeId v) { return base.OutNeighbors(v).data(); },
      out_offsets, out_targets);
  BuildDeltaSide(
      n, base_n, num_edges_, in_, dirty_in_,
      [&base](NodeId v) { return base.InRowBegin(v); },
      [&base](NodeId v) { return base.InNeighbors(v).data(); },
      in_offsets, in_sources);
  return Graph::FromSortedCsrPair(n, std::move(out_offsets),
                                  std::move(out_targets),
                                  std::move(in_offsets),
                                  std::move(in_sources));
}

void DynamicGraph::MarkClean() {
  std::fill(dirty_out_.begin(), dirty_out_.end(), 0);
  std::fill(dirty_in_.begin(), dirty_in_.end(), 0);
  dirty_count_ = 0;
  clean_nodes_ = num_nodes();
  clean_edges_ = num_edges_;
}

size_t DynamicGraph::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& adj : out_) bytes += adj.capacity() * sizeof(NodeId);
  for (const auto& adj : in_) bytes += adj.capacity() * sizeof(NodeId);
  bytes += (out_.capacity() + in_.capacity()) * sizeof(std::vector<NodeId>);
  bytes += dirty_out_.capacity() + dirty_in_.capacity();
  return bytes;
}

std::vector<EdgeUpdate> GenerateUpdateStream(const Graph& graph,
                                             size_t num_updates,
                                             double delete_fraction,
                                             uint64_t seed) {
  std::vector<EdgeUpdate> updates;
  updates.reserve(num_updates);
  Rng rng(seed);
  const NodeId n = graph.num_nodes();
  if (n == 0) return updates;

  // Maintain a live multiset of edges so deletions always target a
  // currently-present edge even after earlier stream entries.
  std::vector<std::pair<NodeId, NodeId>> live;
  live.reserve(graph.num_edges() + num_updates);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : graph.OutNeighbors(v)) live.emplace_back(v, w);
  }

  // With a single node every insert would be a self-loop, so the stream
  // degenerates to deletions only (and ends short once none remain).
  const bool can_insert = n > 1;
  for (size_t i = 0; i < num_updates; ++i) {
    const bool do_delete =
        !live.empty() &&
        (!can_insert || rng.NextDouble() < delete_fraction);
    if (do_delete) {
      const size_t pick = rng.NextBounded(live.size());
      const auto [src, dst] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      updates.push_back({EdgeUpdate::Kind::kDelete, src, dst});
    } else if (!can_insert) {
      break;
    } else {
      NodeId src = static_cast<NodeId>(rng.NextBounded(n));
      NodeId dst = static_cast<NodeId>(rng.NextBounded(n));
      while (dst == src) dst = static_cast<NodeId>(rng.NextBounded(n));
      live.emplace_back(src, dst);
      updates.push_back({EdgeUpdate::Kind::kInsert, src, dst});
    }
  }
  return updates;
}

}  // namespace simpush
