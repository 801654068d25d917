#include "simpush/source_push.h"

#include <algorithm>
#include <bit>
#include <span>
#include <string>

#include "simpush/workspace.h"
#include "walk/walk_batch.h"
#include "walk/walker.h"

namespace simpush {

namespace {

// Source-Push accumulator prefetch distance, in row entries: far enough
// ahead to cover a miss to L3 at the loop's rate, short enough to land
// inside the rows of a power-law graph where most edges sit.
constexpr size_t kPushPrefetchDistance = 16;

// Algorithm 2 lines 1-8: sample N √c-walks from u, tally per-level visit
// counts H^(l)(u, v), and return the largest level where some node's
// count reaches the detection threshold (i.e. an empirical hitting
// probability >= ε_h/2). Capped by L* afterwards by the caller.
//
// This is the per-query latency floor of SimPush, so the walks run
// through the batched SoA kernel (walk/walk_batch.h): waves of lockstep
// walks with prefetched adjacency loads, each walk on its own counter
// stream Rng::ForWalk(walk_seed, u, i). Counts live in the workspace's
// epoch-stamped open-addressing tally — no hashing container churn, no
// O(n) clears between queries.
//
// The final max_level is invariant to the order walks are tallied in,
// so any wave size gives bit-identical downstream scores: a visit's
// increment is skipped only when its level is already <= max_level, and
// max_level can only ever rise to M* = max{l : some node's FULL count
// T(l, v) reaches the threshold} — visits at levels above the current
// max_level are never skipped, so the threshold at M* is always
// eventually reached no matter the interleaving, and no level beyond M*
// can reach it under any order.
uint32_t DetectMaxLevel(const Graph& graph, NodeId u,
                        const DerivedParams& params, Rng* rng,
                        QueryWorkspace* workspace, uint64_t* walks_out,
                        const CancelToken* cancel) {
  LevelNodeTally& tally = workspace->level_tally;
  tally.NewRound();
  uint32_t max_level = 0;
  // One draw reserves the walk-stream key. `rng` is itself a pure
  // function of (options.seed, u), so every walk stream stays pinned to
  // (seed, node, walk_index); downstream consumers of `rng` see exactly
  // one draw here regardless of wave size, walk count, or cancellation.
  const uint64_t walk_seed = rng->Next();
  const Walker walker(graph, params.sqrt_c);
  *walks_out = RunWalkWaves(
      graph, u, walk_seed, params.num_walks, params.l_star,
      walker.inv_log_sqrt_c(),
      [&](uint32_t level, NodeId node) {
        if (level <= max_level) return;  // Only deeper levels matter.
        const uint64_t key = (static_cast<uint64_t>(level) << 32) | node;
        if (tally.Increment(key) >= params.level_count_threshold) {
          max_level = level;
        }
      },
      cancel, kDefaultWalkWaveSize);
  return max_level;  // On cancellation the caller re-checks and aborts.
}

}  // namespace

Status SourcePushInto(const Graph& graph, NodeId u,
                      const SimPushOptions& options,
                      const DerivedParams& params, Rng* rng,
                      QueryWorkspace* workspace, SourceGraph* gu,
                      SourcePushStats* stats,
                      const CancelToken* cancel) {
  if (u >= graph.num_nodes()) {
    return Status::InvalidArgument("query node " + std::to_string(u) +
                                   " out of range");
  }
  workspace->Prepare(graph.num_nodes());

  uint32_t max_level = params.l_star;
  uint64_t walks = 0;
  if (options.use_level_detection) {
    max_level = DetectMaxLevel(graph, u, params, rng, workspace, &walks,
                               cancel);
    max_level = std::min(max_level, params.l_star);
    SIMPUSH_RETURN_NOT_OK(CheckCancel(cancel));
  }
  // Even when sampling saw nothing past level 0 (e.g. u has no
  // in-neighbors), level 1 may still hold attention nodes with
  // probability mass below the sampling threshold only by chance; the
  // propagation itself is cheap for one level, so explore at least 1.
  max_level = std::max<uint32_t>(max_level, 1);

  gu->Reset(max_level, graph.num_nodes());
  gu->LevelBits(0)[u >> 6] |= uint64_t{1} << (u & 63);

  // Lines 9-19: level-wise propagation h^(ℓ+1)(u, v') += √c·h^(ℓ)(u,v)/d_I(v)
  // for every in-neighbor v' of every frontier node v. The inner loop
  // adds into the workspace's plain dense arrays (hash maps per level
  // would dominate query time on dense graphs) and ORs each in-neighbor
  // into level ℓ+1's membership bits — unconditionally: no stamp, no
  // was-it-set branch, no push per first touch. The arrays are all zero
  // between stages and every slot starts at exactly 0.0, so the first
  // add stores the share itself (0.0 + x == x) and the sums keep the
  // bits of a first-write scheme. The stage restores the zeros before
  // it returns: reading a frontier node's h zeroes its slot, and a
  // cancelled return also clears the half-pushed level.
  double* current = workspace->dense_a.data();
  double* next = workspace->dense_b.data();
  std::vector<NodeId>& frontier = workspace->frontier_a;
  std::vector<NodeId>& frontier_next = workspace->frontier_b;
  const size_t words = (static_cast<size_t>(graph.num_nodes()) + 63) / 64;
  frontier.clear();
  frontier.push_back(u);
  current[u] = 1.0;
  size_t occurrences = 0;
  uint32_t since_poll = 0;
  for (uint32_t level = 0; level < max_level && !frontier.empty(); ++level) {
    uint64_t* bits = gu->LevelBits(level + 1);
    for (size_t i = 0; i < frontier.size(); ++i) {
      // Per-occurrence cancellation stride (same contract as the walk
      // loop above: a poll reads state only). A cancelled return leaves
      // a partial G_u, which the next Reset() wipes.
      if (++since_poll >= kCancelCheckStride) {
        since_poll = 0;
        const Status status = CheckCancel(cancel);
        if (!status.ok()) {
          for (size_t k = i; k < frontier.size(); ++k) {
            current[frontier[k]] = 0.0;
          }
          for (size_t wi = 0; wi < words; ++wi) {
            for (uint64_t m = bits[wi]; m != 0; m &= m - 1) {
              next[wi * 64 + std::countr_zero(m)] = 0.0;
            }
          }
          return status;
        }
      }
      // The frontier is sorted ascending (see below), so the in-CSR
      // rows stream near-sequentially; hint the next rows' offsets so
      // their misses overlap with this row's pushes.
      if (i + 4 < frontier.size()) graph.PrefetchInOffsets(frontier[i + 4]);
      const NodeId v = frontier[i];
      const double h = current[v];
      current[v] = 0.0;
      const std::span<const NodeId> row = graph.InNeighbors(v);
      const size_t deg = row.size();
      if (deg == 0) continue;
      const double share = params.sqrt_c * h / deg;
      // The accumulator slots are random writes over an 8n-byte array
      // that outgrows L2; hint the slot kPushPrefetchDistance entries
      // ahead in the row so the misses overlap. The hinted part of the
      // row runs without a bounds test, the short tail without hints.
      auto push = [&](NodeId vp) {
        next[vp] += share;
        bits[vp >> 6] |= uint64_t{1} << (vp & 63);
      };
      size_t j = 0;
#if defined(__GNUC__) || defined(__clang__)
      for (; j + kPushPrefetchDistance < deg; ++j) {
        __builtin_prefetch(&next[row[j + kPushPrefetchDistance]], /*rw=*/1);
        push(row[j]);
      }
#endif
      for (; j < deg; ++j) push(row[j]);
    }
    // Emit scan over the level's set bits, in node order: the next
    // frontier comes out ascending by construction (no sort), which
    // makes the next level's traversal sequential over the in-CSR and
    // the accumulation order — hence the float sums — a function of the
    // graph alone. While h is at hand the scan also counts the level's
    // occurrences and picks its attention nodes (lines 20-21:
    // h^(ℓ)(u, w) >= ε_h), appending them in node order as SourceGraph
    // requires.
    frontier_next.clear();
    for (size_t wi = 0; wi < words; ++wi) {
      for (uint64_t m = bits[wi]; m != 0; m &= m - 1) {
        const NodeId vp = static_cast<NodeId>(wi * 64 + std::countr_zero(m));
        frontier_next.push_back(vp);
        const double h = next[vp];
        if (h >= params.eps_h) gu->AddAttentionNode(vp, level + 1, h);
      }
    }
    occurrences += frontier_next.size();
    // The consumed level's slots are zero again, so the array serves as
    // the next level's accumulator after the swap.
    std::swap(current, next);
    std::swap(frontier, frontier_next);
  }
  // The deepest level explored was never consumed: zero its slots.
  for (NodeId v : frontier) current[v] = 0.0;

  if (stats != nullptr) {
    stats->detected_level = max_level;
    stats->walks_sampled = walks;
    stats->gu_node_occurrences = occurrences;
    stats->num_attention = gu->num_attention();
  }
  return Status::OK();
}

}  // namespace simpush
