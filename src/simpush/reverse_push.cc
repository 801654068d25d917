#include "simpush/reverse_push.h"

#include <algorithm>

#include "simpush/workspace.h"

namespace simpush {

namespace {

// values[v] += amount, listing v in `touched` on its first touch (its
// bit in `mask` still clear). Every slot starts at exactly 0.0, so the
// first add stores `amount` itself.
inline void AddResidue(double* values, uint64_t* mask,
                       std::vector<NodeId>* touched, NodeId v,
                       double amount) {
  uint64_t& word = mask[v >> 6];
  const uint64_t bit = uint64_t{1} << (v & 63);
  if ((word & bit) == 0) {
    word |= bit;
    touched->push_back(v);
  }
  values[v] += amount;
}

// Restores the all-zero invariant over the slots `touched` lists.
void ClearTouched(double* values, uint64_t* mask,
                  std::vector<NodeId>* touched) {
  for (NodeId v : *touched) {
    values[v] = 0.0;
    mask[v >> 6] = 0;
  }
  touched->clear();
}

}  // namespace

Status ReversePush(const Graph& graph, const SourceGraph& gu,
                   const std::vector<double>& gamma, double sqrt_c,
                   double eps_h, QueryWorkspace* workspace,
                   std::vector<double>* scores, ReversePushStats* stats,
                   const CancelToken* cancel) {
  workspace->Prepare(graph.num_nodes());
  // Plain residue accumulators, all zero between stages; a bitmask per
  // array detects first touches. Consuming a residue zeroes its slot
  // and mask word, so each level leaves its array clean for reuse.
  double* current = workspace->dense_a.data();
  double* next = workspace->dense_b.data();
  uint64_t* current_mask = workspace->touched_a.data();
  uint64_t* next_mask = workspace->touched_b.data();
  std::vector<NodeId>& current_touched = workspace->frontier_a;
  std::vector<NodeId>& next_touched = workspace->frontier_b;

  ReversePushStats local_stats;
  const uint32_t max_level = gu.max_level();
  uint32_t since_poll = 0;

  for (uint32_t level = max_level; level >= 1; --level) {
    // Inject the initial residues r^(ℓ)(w) = h^(ℓ)(u,w)·γ^(ℓ)(w) of the
    // attention nodes living on this level; they combine with residues
    // that arrived from deeper levels (§4.3's merged push).
    for (AttentionId id : gu.AttentionOnLevel(level)) {
      const AttentionNode& w = gu.attention_nodes()[id];
      const double residue = w.hitting_prob * gamma[id];
      if (residue == 0.0) continue;
      AddResidue(current, current_mask, &current_touched, w.node, residue);
    }

    for (size_t i = 0; i < current_touched.size(); ++i) {
      // Cancellation poll every kCancelCheckStride pushed nodes; the
      // poll reads state only, so an unfired token cannot perturb the
      // (fully deterministic) push order or the scores. A fired one
      // restores the zeros of both arrays before returning.
      if (++since_poll >= kCancelCheckStride) {
        since_poll = 0;
        const Status status = CheckCancel(cancel);
        if (!status.ok()) {
          ClearTouched(current, current_mask, &current_touched);
          ClearTouched(next, next_mask, &next_touched);
          return status;
        }
      }
      const NodeId vp = current_touched[i];
      const double residue = current[vp];
      current[vp] = 0.0;
      current_mask[vp >> 6] = 0;
      // Push threshold: √c·r^(ℓ')(v') >= ε_h (Algorithm 5 line 4);
      // below-threshold residue is dropped — that is the approximation
      // ĥ introduces.
      if (sqrt_c * residue < eps_h) continue;
      ++local_stats.pushes;
      for (NodeId v : graph.OutNeighbors(vp)) {
        ++local_stats.edges_traversed;
        const double share = sqrt_c * residue / graph.InDegree(v);
        if (level > 1) {
          AddResidue(next, next_mask, &next_touched, v, share);
        } else {
          (*scores)[v] += share;
        }
      }
    }
    // The consumed level's slots are zero again; the array then serves
    // as the next level's accumulator after the swap.
    current_touched.clear();
    std::swap(current, next);
    std::swap(current_mask, next_mask);
    std::swap(current_touched, next_touched);
  }

  if (stats != nullptr) *stats = local_stats;
  return Status::OK();
}

}  // namespace simpush
