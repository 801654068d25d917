// QueryWorkspace: every piece of per-query scratch the SimPush stages
// need, owned in one place so a long-lived SimPushEngine answers
// queries with zero steady-state heap allocations.
//
// Ownership map (stage → scratch):
//   Source-Push (Alg. 2)   — level_tally (walk level detection),
//                            dense_a/dense_b + frontier_a/frontier_b
//                            (level-wise residue propagation; the
//                            level bits of source_graph mark what
//                            dense_b holds), source_graph (the G_u
//                            being built: level membership bits +
//                            attention occurrences).
//   Hitting (Alg. 3)       — holder_span, touched_a (receiver
//                            dedup; idle until Reverse-Push), receivers,
//                            attention_accum/scratch_bits,
//                            hitting_table; membership is read from
//                            source_graph.
//   Last-meeting (Alg. 4)  — gamma_scratch, gamma.
//   Reverse-Push (Alg. 5)  — dense_a/dense_b + frontier_a/frontier_b
//                            again (the stages are sequential), plus
//                            touched_a/touched_b (first-touch masks).
//
// All buffers grow to a high-water mark and follow one rule: the dense
// scratch arrays are all zero between stages, and each stage restores
// the zeros over what it touched before it returns, a cancelled return
// included — never an O(n) sweep per query. The only stamped structure
// left is level_tally, an open-addressing table whose epoch-stamped
// slots make a new round O(1) without a key list.

#ifndef SIMPUSH_SIMPUSH_WORKSPACE_H_
#define SIMPUSH_SIMPUSH_WORKSPACE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "simpush/hitting.h"
#include "simpush/source_graph.h"

namespace simpush {

/// Flat open-addressing (level, node) → count tally for Source-Push
/// level detection. Slots are epoch-stamped, so starting a new query is
/// O(1); the table only allocates while growing to its high-water size.
class LevelNodeTally {
 public:
  /// O(1) logical clear (epoch bump).
  void NewRound();

  /// Increments the count of `key` and returns the new value.
  /// `key` packs (level << 32 | node).
  uint64_t Increment(uint64_t key);

  /// Live entries in the current round (for tests).
  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t count = 0;
    uint32_t epoch = 0;
  };

  void Grow();

  std::vector<Slot> slots_;  // Power-of-two size.
  size_t size_ = 0;          // Live entries this round.
  uint32_t epoch_ = 1;
};

/// Reusable scratch for the γ computation (Algorithm 4).
struct GammaScratch {
  // Dense per-target accumulator + touched list.
  std::vector<double> acc;
  std::vector<AttentionId> touched;
  // pending[lvl]: (target, amount) pairs to subtract from targets at
  // level lvl — the ρ(j)·h̃(i-j)² terms of Eq. 11, emitted once when a
  // ρ-carrier is finalized instead of being re-scanned per level.
  std::vector<std::vector<std::pair<AttentionId, double>>> pending;

  void Prepare(size_t num_attention, uint32_t max_level) {
    if (acc.size() < num_attention) acc.resize(num_attention, 0.0);
    touched.clear();
    if (pending.size() < max_level + 1) pending.resize(max_level + 1);
    for (auto& level : pending) level.clear();
  }
};

/// All per-query scratch of the SimPush engine. One instance per engine
/// (or per worker thread); not thread-safe.
class QueryWorkspace {
 public:
  /// Readies the workspace for one query on an n-node graph: grows the
  /// per-node arrays to n, zero-filled (no-op after the first query).
  /// O(1) once warm.
  void Prepare(NodeId num_nodes);

  // --- Dense per-node value scratch, shared by Source-Push (levels) and
  // Reverse-Push (residues); both consume it level by level. All zero
  // between stages, so a push adds into a slot without a first-touch
  // test (0.0 + x == x: the sums are the same bits as a stamped first
  // write).
  std::vector<double> dense_a;
  std::vector<double> dense_b;
  std::vector<NodeId> frontier_a;
  std::vector<NodeId> frontier_b;
  // Reverse-Push's first-touch bitmasks over dense_a/dense_b, one bit
  // per node (⌈n/64⌉ words); all zero between stages. The hitting stage
  // borrows touched_a to deduplicate a level's receivers.
  std::vector<uint64_t> touched_a;
  std::vector<uint64_t> touched_b;

  // --- Source-Push level detection.
  LevelNodeTally level_tally;

  // --- Hitting-table construction. holder_span maps a node of level
  // ℓ+1 holding a nonzero vector to its packed pool-span bounds
  // (begin << 32 | end), so the pull loop reads the span in ONE random
  // access instead of index-then-NodeSpan chasing; all zero between
  // stages (0 reads as "not a holder").
  std::vector<uint64_t> holder_span;
  std::vector<NodeId> receivers;
  std::vector<double> attention_accum;    // Zero-restored after each use.

  // --- Touched-set bitmask of the hitting pull merge, indexed by
  // attention id; all zero between stages. The merge ORs into it
  // unconditionally — no per-write branch — and the emit scan walks
  // set bits in id order, which both restores the zeros and yields
  // sorted output without a sort.
  std::vector<uint64_t> scratch_bits;

  // --- Last-meeting probabilities.
  GammaScratch gamma_scratch;
  std::vector<double> gamma;

  // --- Per-query data products, pooled across queries.
  SourceGraph source_graph;
  HittingTable hitting_table;
};

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_WORKSPACE_H_
