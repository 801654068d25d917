#include "graph/dynamic_graph.h"

#include <algorithm>
#include <cstddef>
#include <string>

#include "common/rng.h"
#include "graph/graph_builder.h"

namespace simpush {

namespace {

// Removes one occurrence of `value`, which must be present, from `vec`
// by swapping with the back.
void SwapRemove(std::vector<NodeId>& vec, NodeId value) {
  *std::find(vec.begin(), vec.end(), value) = vec.back();
  vec.pop_back();
}

}  // namespace

DynamicGraph::DynamicGraph(NodeId num_nodes)
    : DynamicGraph(std::make_shared<const Graph>(
          *GraphBuilder(num_nodes).Build())) {}

DynamicGraph::DynamicGraph(std::shared_ptr<const Graph> base)
    : base_(std::move(base)),
      num_nodes_(base_->num_nodes()),
      num_edges_(base_->num_edges()) {}

std::span<const NodeId> DynamicGraph::Row(NodeId v, Side side) const {
  const auto it = slot_of_.find(v);
  if (it != slot_of_.end() && dirty_[it->second].rows[side]) {
    return *dirty_[it->second].rows[side];
  }
  return BaseRow(*base_, v, side);
}

std::vector<NodeId>& DynamicGraph::MutableRow(NodeId v, Side side) {
  const auto [it, inserted] =
      slot_of_.try_emplace(v, static_cast<uint32_t>(dirty_.size()));
  if (inserted) dirty_.push_back(DirtyRows{v, {}});
  std::optional<std::vector<NodeId>>& row = dirty_[it->second].rows[side];
  if (!row) {
    // First write: copy the base row; a node past the base starts empty.
    const auto clean = v < base_->num_nodes() ? BaseRow(*base_, v, side)
                                              : std::span<const NodeId>();
    row.emplace(clean.begin(), clean.end());
  }
  return *row;
}

NodeId DynamicGraph::AddNode() {
  // A node past the base has no base row to read through to, so it
  // holds both (empty) rows until the next MarkClean().
  MutableRow(num_nodes_, kOut);
  MutableRow(num_nodes_, kIn);
  return num_nodes_++;
}

Status DynamicGraph::AddEdge(NodeId src, NodeId dst) {
  if (src >= num_nodes() || dst >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  MutableRow(src, kOut).push_back(dst);
  MutableRow(dst, kIn).push_back(src);
  ++num_edges_;
  return Status::OK();
}

Status DynamicGraph::RemoveEdge(NodeId src, NodeId dst) {
  if (src >= num_nodes() || dst >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  // Checked before any row is copied, so a miss dirties nothing.
  if (!HasEdge(src, dst)) return Status::NotFound("edge not present");
  SwapRemove(MutableRow(src, kOut), dst);
  // The in-row must hold a matching entry; CSR invariants guarantee it.
  SwapRemove(MutableRow(dst, kIn), src);
  --num_edges_;
  return Status::OK();
}

bool DynamicGraph::HasEdge(NodeId src, NodeId dst) const {
  return src < num_nodes() && EdgeMultiplicity(src, dst) > 0;
}

EdgeId DynamicGraph::EdgeMultiplicity(NodeId src, NodeId dst) const {
  const auto row = Row(src, kOut);
  return static_cast<EdgeId>(std::count(row.begin(), row.end(), dst));
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
      // (src, dst) packed into one word.
      auto [it, first_touch] = available.try_emplace(
          (static_cast<uint64_t>(update.src) << 32) | update.dst, 0);
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
    SIMPUSH_RETURN_NOT_OK(update.kind == EdgeUpdate::Kind::kInsert
                              ? AddEdge(update.src, update.dst)
                              : RemoveEdge(update.src, update.dst));
  }
  return Status::OK();
}

StatusOr<Graph> DynamicGraph::Snapshot() const {
  // Canonical snapshot: RemoveEdge's swap-with-back removal makes a
  // dirty row's order a function of the whole update history, so the
  // CSR is built with every per-node run sorted — two graphs holding the
  // same edge multiset snapshot to byte-identical CSRs no matter which
  // insert/delete sequence produced them. That is what makes registry
  // hot swaps reproducible (and walk indices meaningful across swaps).
  // Parallel edges are kept: the dynamic stream may legitimately contain
  // duplicates and deleting one copy must leave the other.
  const NodeId n = num_nodes();
  const std::vector<uint64_t> order = SortedSlots();
  std::vector<EdgeId> offsets(static_cast<size_t>(n) + 1, 0);
  std::vector<NodeId> targets(static_cast<size_t>(num_edges_));
  size_t next = 0;  // First overlay entry at or after v.
  for (NodeId v = 0; v < n; ++v) {
    const DirtyRows* entry = next < order.size() && (order[next] >> 32) == v
                                 ? &EntryAt(order, next++)
                                 : nullptr;
    const std::span<const NodeId> out =
        entry != nullptr && entry->rows[kOut] ? *entry->rows[kOut]
                                              : base_->OutNeighbors(v);
    offsets[v + 1] = offsets[v] + out.size();
    const auto begin = targets.begin() + static_cast<ptrdiff_t>(offsets[v]);
    std::copy(out.begin(), out.end(), begin);
    std::sort(begin, begin + static_cast<ptrdiff_t>(out.size()));
  }
  return Graph::FromSortedCsr(n, std::move(offsets), std::move(targets));
}

std::vector<uint64_t> DynamicGraph::SortedSlots() const {
  std::vector<uint64_t> order;
  order.reserve(dirty_.size());
  for (uint32_t slot = 0; slot < dirty_.size(); ++slot) {
    order.push_back(static_cast<uint64_t>(dirty_[slot].node) << 32 | slot);
  }
  // LSD radix sort on the node half, 11 bits per pass: at 10^4+ dirty
  // nodes std::sort's O(k log k) compares were a visible share of a
  // publish.
  std::vector<uint64_t> sorted(order.size());
  for (int shift = 32; shift < 64; shift += 11) {
    size_t start[2049] = {};
    for (const uint64_t key : order) ++start[((key >> shift) & 2047) + 1];
    for (int digit = 0; digit < 2048; ++digit) {
      start[digit + 1] += start[digit];
    }
    for (const uint64_t key : order) {
      sorted[start[(key >> shift) & 2047]++] = key;
    }
    order.swap(sorted);
  }
  return order;
}

const DynamicGraph::DirtyRows& DynamicGraph::EntryAt(
    const std::vector<uint64_t>& order, size_t i) const {
  constexpr size_t kAhead = 8;
  if (i + kAhead < order.size()) {
    __builtin_prefetch(&dirty_[static_cast<uint32_t>(order[i + kAhead])]);
  }
  return dirty_[static_cast<uint32_t>(order[i])];
}

void DynamicGraph::BuildDeltaSide(Side side, const Graph& base,
                                  const std::vector<uint64_t>& order,
                                  std::vector<EdgeId>& offsets,
                                  std::vector<NodeId>& flat) const {
  const auto row_begin = [&base, side](NodeId v) {
    return side == kOut ? base.OutRowBegin(v) : base.InRowBegin(v);
  };
  offsets.resize(static_cast<size_t>(num_nodes()) + 1);
  offsets[0] = 0;
  // Append into reserved capacity instead of resize-then-overwrite:
  // the flat array is written exactly once (no zero-fill pass), which
  // matters when the whole point is to be bandwidth-bound on ~m words.
  flat.clear();
  flat.reserve(num_edges_);
  NodeId v = 0;  // First row not yet emitted.
  // Rows [v, end) are clean on this side, so their content is already
  // canonical and contiguous in the base's flat array: one copy, with
  // the base's offsets shifted by however much the dirty rows before
  // them grew or shrank. Appended nodes are always dirty, so a clean
  // run never reaches past the base.
  const auto copy_clean_run = [&](NodeId end) {
    if (v == end) return;
    const NodeId* data = BaseRow(base, v, side).data();
    flat.insert(flat.end(), data, data + (row_begin(end) - row_begin(v)));
    const EdgeId shift = offsets[v] - row_begin(v);
    for (; v < end; ++v) offsets[v + 1] = row_begin(v + 1) + shift;
  };
  for (size_t i = 0; i < order.size(); ++i) {
    const std::optional<std::vector<NodeId>>& row =
        EntryAt(order, i).rows[side];
    if (!row) continue;  // Clean on this side: part of a clean run.
    const NodeId d = static_cast<NodeId>(order[i] >> 32);
    copy_clean_run(d);
    flat.insert(flat.end(), row->begin(), row->end());
    std::sort(flat.end() - static_cast<ptrdiff_t>(row->size()), flat.end());
    offsets[d + 1] = offsets[d] + row->size();
    v = d + 1;
  }
  copy_clean_run(num_nodes());
}

StatusOr<Graph> DynamicGraph::SnapshotDelta(const Graph& base) const {
  // Cheap base check: node/edge counts catch every registry-level
  // misuse (a stale generation, another tenant's graph); byte-level
  // agreement with base() is the documented contract, enforced
  // end-to-end by the randomized delta-vs-full property suite.
  if (base.num_nodes() != base_->num_nodes() ||
      base.num_edges() != base_->num_edges()) {
    return Status::FailedPrecondition(
        "delta base does not match the last marked-clean snapshot");
  }
  const std::vector<uint64_t> order = SortedSlots();
  std::vector<EdgeId> out_offsets, in_offsets;
  std::vector<NodeId> out_targets, in_sources;
  BuildDeltaSide(kOut, base, order, out_offsets, out_targets);
  BuildDeltaSide(kIn, base, order, in_offsets, in_sources);
  return Graph::FromSortedCsrPair(num_nodes(), std::move(out_offsets),
                                  std::move(out_targets),
                                  std::move(in_offsets),
                                  std::move(in_sources));
}

void DynamicGraph::MarkClean(std::shared_ptr<const Graph> published) {
  base_ = std::move(published);
  // Fresh containers, not clear(): clear() keeps the capacity, so a
  // clean master would go on holding memory sized for the last burst.
  dirty_ = std::vector<DirtyRows>();
  slot_of_ = std::unordered_map<NodeId, uint32_t>();
}

size_t DynamicGraph::MemoryBytes() const {
  // A bucket is one pointer; an index node is a next pointer plus the
  // (node, slot) pair.
  size_t bytes =
      sizeof(*this) + dirty_.capacity() * sizeof(DirtyRows) +
      (slot_of_.bucket_count() + 2 * slot_of_.size()) * sizeof(void*);
  for (const DirtyRows& entry : dirty_) {
    for (const auto& row : entry.rows) {
      if (row) bytes += row->capacity() * sizeof(NodeId);
    }
  }
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
