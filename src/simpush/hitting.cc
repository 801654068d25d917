#include "simpush/hitting.h"

#include <algorithm>
#include <bit>
#include <span>

#include "simpush/workspace.h"

namespace simpush {

HittingVector HittingTable::VectorAt(uint32_t level, NodeId v) const {
  if (level >= num_levels_) return {};
  const LevelVectors& vectors = per_level_[level];
  auto it = std::lower_bound(
      vectors.nodes.begin(), vectors.nodes.end(), v,
      [](const NodeSpan& span, NodeId node) { return span.node < node; });
  if (it == vectors.nodes.end() || it->node != v) return {};
  return {vectors.pool.data() + it->begin, vectors.pool.data() + it->end};
}

double HittingTable::Probability(uint32_t level, NodeId v,
                                 AttentionId target) const {
  const HittingVector vec = VectorAt(level, v);
  auto it = std::lower_bound(
      vec.begin(), vec.end(), target,
      [](const auto& entry, AttentionId id) { return entry.first < id; });
  if (it == vec.end() || it->first != target) return 0.0;
  return it->second;
}

size_t HittingTable::NumVectors() const {
  size_t total = 0;
  for (uint32_t level = 0; level < num_levels_; ++level) {
    total += per_level_[level].nodes.size();
  }
  return total;
}

size_t HittingTable::NumEntries() const {
  size_t total = 0;
  for (uint32_t level = 0; level < num_levels_; ++level) {
    total += per_level_[level].pool.size();
  }
  return total;
}

void HittingTable::Reset(uint32_t max_level) {
  const uint32_t levels = max_level + 1;
  if (per_level_.size() < levels) per_level_.resize(levels);
  for (uint32_t level = 0; level < std::max(levels, num_levels_); ++level) {
    per_level_[level].nodes.clear();
    per_level_[level].pool.clear();
  }
  num_levels_ = levels;
}

void ComputeHittingTable(const Graph& graph, const SourceGraph& gu,
                         double sqrt_c, QueryWorkspace* workspace,
                         HittingTable* table, const CancelToken* cancel) {
  workspace->Prepare(graph.num_nodes());
  const uint32_t max_level = gu.max_level();
  table->Reset(max_level);
  if (max_level < 2) return;  // No targets deeper than level 1.

  const size_t num_attention = gu.num_attention();
  // Dense scratch accumulator over attention ids, paired with a bitmask
  // of touched ids. The merge loop below runs ~10 pool entries per
  // stored entry, so its per-entry cost decides the whole stage: the
  // bitmask makes it branchless (unconditional OR instead of the
  // unpredictable accum[t] == 0 test a touched-list needs), and
  // iterating set bits at emit time yields the targets already in
  // ascending id order — the per-receiver sort disappears. Both the
  // accumulator slots and the mask words are zero-restored during the
  // emit scan, so the scratch stays clean without per-receiver clears.
  std::vector<double>& accum = workspace->attention_accum;
  if (accum.size() < num_attention) accum.resize(num_attention, 0.0);
  const size_t words = (num_attention + 63) / 64;
  std::vector<uint64_t>& bits = workspace->scratch_bits;
  if (bits.size() < words) bits.resize(words, 0);
  // Per-node scratch over graph nodes, all zero between stages like the
  // push accumulators; each level restores the zeros it wrote:
  //   holder_span — maps a node of level+1 holding a nonzero vector to
  //                 its packed pool-span bounds (begin << 32 | end), so
  //                 a pull reads the holder's entries after ONE random
  //                 access (no NodeSpan chase, no hashing);
  //   marks       — Reverse-Push's first-touch mask touched_a (idle
  //                 until that stage), here deduplicating the current
  //                 level's receivers.
  // Membership of the current level is G_u's own bitmask (O(1)
  // Contains). Receivers are discovered by scanning the holders'
  // out-edges, so a level's cost is Σ outdeg(holders) + Σ
  // indeg(receivers) instead of an O(|G_u level|) sweep — holders
  // cluster near the attention set.
  uint64_t* holder_span = workspace->holder_span.data();
  uint64_t* marks = workspace->touched_a.data();
  std::vector<NodeId>& receivers = workspace->receivers;
  // Restores holder_span's zeros over one level's holders.
  auto clear_holders = [holder_span](const HittingTable::LevelVectors& above) {
    for (const HittingTable::NodeSpan& holder : above.nodes) {
      holder_span[holder.node] = 0;
    }
  };
  // Queues v as a receiver unless it already is (test-and-set).
  auto mark_receiver = [&](NodeId v) {
    uint64_t& word = marks[v >> 6];
    const uint64_t bit = uint64_t{1} << (v & 63);
    if ((word & bit) == 0) {
      word |= bit;
      receivers.push_back(v);
    }
  };

  // Self entries at the deepest level: h̃^(0)(w, w) = 1 for attention w
  // at levels 2..L (level-1 attention nodes are never ρ-targets).
  // Attention ids of a level ascend with their node, so the NodeSpans
  // come out sorted by node.
  {
    HittingTable::LevelVectors& deepest = table->per_level_[max_level];
    for (AttentionId id : gu.AttentionOnLevel(max_level)) {
      const uint32_t begin = static_cast<uint32_t>(deepest.pool.size());
      deepest.pool.emplace_back(id, 1.0);
      deepest.nodes.push_back(
          {gu.attention_nodes()[id].node, begin, begin + 1});
    }
  }

  // Pull from level+1 into level, for level = L-1 .. 1.
  uint32_t since_poll = 0;
  for (uint32_t level = max_level - 1; level >= 1; --level) {
    const HittingTable::LevelVectors& above = table->per_level_[level + 1];
    HittingTable::LevelVectors& here = table->per_level_[level];
    for (const HittingTable::NodeSpan& holder : above.nodes) {
      // end > begin for every stored span, so a packed value is never 0
      // and 0 cleanly reads as "not a holder".
      holder_span[holder.node] =
          (static_cast<uint64_t>(holder.begin) << 32) | holder.end;
    }
    // Receivers: current-level nodes with at least one holder
    // in-neighbor, found via the holders' out-edges; plus this level's
    // attention nodes, which must emit a self entry even when they pull
    // nothing (e.g. dangling nodes).
    receivers.clear();
    for (const HittingTable::NodeSpan& holder : above.nodes) {
      for (NodeId v : graph.OutNeighbors(holder.node)) {
        if (gu.Contains(level, v)) mark_receiver(v);
      }
    }
    if (level >= 2) {
      for (AttentionId id : gu.AttentionOnLevel(level)) {
        mark_receiver(gu.attention_nodes()[id].node);
      }
    }
    // The marks have done their job; restore their zeros now, so only
    // holder_span is live across the pulls.
    for (NodeId v : receivers) marks[v >> 6] = 0;
    // Pull in ascending node order: the receivers' in-CSR rows are then
    // streamed sequentially (instead of hopping with discovery order),
    // and the spans appended to here.nodes come out already sorted —
    // the per-level sort below disappears. Each receiver's accumulation
    // is independent, so the reorder changes no value.
    std::sort(receivers.begin(), receivers.end());
    for (NodeId v : receivers) {
      // Cancellation stride over pulls; on a fired token the table is
      // left partial — the caller re-checks the token and discards it.
      if (++since_poll >= kCancelCheckStride) {
        since_poll = 0;
        if (ShouldStop(cancel)) {
          clear_holders(above);
          return;
        }
      }
      const uint32_t deg = graph.InDegree(v);
      size_t wlo = words, whi = 0;
      // A dangling node (deg == 0) pulls nothing, but when it is an
      // attention node its self entry below must still be emitted so
      // shallower levels can see it.
      if (deg > 0) {
        const double scale = sqrt_c / deg;
        const std::span<const NodeId> in = graph.InNeighbors(v);
        // Two-stage software pipeline over the in-neighbors: the
        // holder_span probes are random node-indexed accesses, hinted
        // kSpanLookahead ahead; at kPoolLookahead (close enough that its
        // span bounds are already cached from the first stage) the span
        // bounds are re-read to hint the pool entries themselves — the
        // level's pool outgrows L2, so the merge loop's first touch of
        // each span is otherwise a stall.
        constexpr size_t kSpanLookahead = 8;
        constexpr size_t kPoolLookahead = 3;
        const size_t n_in = in.size();
        for (size_t i = 0; i < n_in; ++i) {
          if (i + kSpanLookahead < n_in) {
#if defined(__GNUC__) || defined(__clang__)
            __builtin_prefetch(&holder_span[in[i + kSpanLookahead]],
                               /*rw=*/0, /*locality=*/1);
#endif
          }
          if (i + kPoolLookahead < n_in) {
            const uint64_t ahead = holder_span[in[i + kPoolLookahead]];
#if defined(__GNUC__) || defined(__clang__)
            if (ahead != 0) {
              __builtin_prefetch(&above.pool[ahead >> 32], /*rw=*/0,
                                 /*locality=*/1);
            }
#endif
          }
          const uint64_t packed = holder_span[in[i]];
          if (packed == 0) continue;
          const uint32_t end = static_cast<uint32_t>(packed);
          for (uint32_t e = static_cast<uint32_t>(packed >> 32); e < end; ++e) {
            const auto& [target, prob] = above.pool[e];
            accum[target] += prob * scale;
            const size_t w = target >> 6;
            bits[w] |= uint64_t{1} << (target & 63);
            if (w < wlo) wlo = w;
            if (w > whi) whi = w;
          }
        }
      }
      const uint32_t begin = static_cast<uint32_t>(here.pool.size());
      // Self entry when v is itself an attention node on this level
      // (level >= 2): its id is distinct from every pulled target id
      // (those are occurrences at deeper levels), so a plain sorted
      // merge of one element suffices.
      AttentionId self_id = 0;
      const bool has_self =
          level >= 2 && gu.LookupAttention(level, v, &self_id);
      bool self_inserted = false;
      for (size_t wi = wlo; wi <= whi; ++wi) {
        uint64_t m = bits[wi];
        if (m == 0) continue;
        bits[wi] = 0;
        do {
          const AttentionId target =
              static_cast<AttentionId>(wi * 64 + std::countr_zero(m));
          m &= m - 1;
          if (has_self && !self_inserted && self_id < target) {
            here.pool.emplace_back(self_id, 1.0);
            self_inserted = true;
          }
          here.pool.emplace_back(target, accum[target]);
          accum[target] = 0.0;
        } while (m != 0);
      }
      if (has_self && !self_inserted) here.pool.emplace_back(self_id, 1.0);
      const uint32_t end = static_cast<uint32_t>(here.pool.size());
      if (end > begin) here.nodes.push_back({v, begin, end});
    }
    // here.nodes is sorted by construction: receivers were processed in
    // ascending node order, so VectorAt's binary search needs no sort.
    clear_holders(above);
    if (level == 1) break;  // uint32_t wrap guard.
  }
}

}  // namespace simpush
