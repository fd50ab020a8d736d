// Certified exact best-response search: depth-first branch-and-bound over
// head sets.
//
// The search space is all head sets S ⊆ V∖{u} with |S| ≤ b_u — "≤" because
// the player's cost is monotone non-increasing in its head set (every head
// only adds a seed to the distance minimisation), so the optimum over
// ≤ b-sets equals the optimum over exactly-b sets and any incumbent pads to
// budget for free.
//
// Scoring (with_table_evaluator, game/strategy_eval.hpp): for n ≤
// kTableEvaluatorLimit one TableEvaluator per solve holds the n×n
// base-distance table and a stack of seed covers.
// Each DFS node's partial head set P is the top of that stack, so
// descending/backtracking is one O(n) cover pass or a pop. A node probes
// all its candidates with one batched call (TableEvaluator::
// cost_with_heads): one kernel call makes one O(n) pass over
// min(cover, row_t) per candidate and folds every row_t into the
// seed-distance bound below. The kernels are integer-only and cloned for
// AVX2 and the baseline ISA (the host picks one at load time; both return
// the same bits). The greedy+swap incumbent seed runs
// the shared descent bodies (greedy_with / swap_improve_with) on the same
// evaluator before the search reuses it. Above that limit, where an O(n²)
// table is too large, the same search runs on the CSR delta oracle
// (journaled dynamic-BFS trial probes) under the savings bound alone. Every
// cost is exact either way, and the DFS order depends only on costs, so the
// scoring path never changes a node, prune, evaluation count or incumbent.
//
// Children are expanded best saving first, ties to the smaller vertex id,
// and no node orders more candidates than it uses:
//   * r = 1 (one head slot left): the children are leaves. One pass over
//     the probed costs finds the least (cost, vertex) child, the only one
//     the ordered walk could offer, and with it the largest saving, the SUM
//     bound's gain. Nothing is sorted.
//   * r ≥ 2: each candidate becomes one BranchKey word (below), whose
//     descending integer order is branch order, and the words are put in
//     order only up to the prefix the child loop reaches (nth_element +
//     sort, in blocks that double), with a prefix sum over the ordered
//     savings. A child's vertex and saving read back off its word, and its
//     cost is cost(P) − saving. The SUM savings bound is the sum of the r
//     largest savings, prefix[min(r, c)], and child k's pre-prune gain is
//     the next r − 1 savings after it, prefix[k+1+keep] − prefix[k+1]. In
//     branch order that pre-prune value child cost − child_gain never
//     decreases while the incumbent only falls, so the first pre-pruned
//     child ends the loop and the rest count as pruned. MAX has no
//     pre-prune and orders every candidate.
// Child k branches over every candidate ranked after it, handed down as a
// suffix span of one per-depth list (its unordered tail included). A
// deadline that expires while such a run of pre-pruned children is being
// skipped no longer marks the search truncated; node-limited searches are
// unchanged. Per-depth scratch is sized b + 1 once per solve, so no node
// allocates once its level is warm.
//
// Pruning (all admissible, i.e. never cuts a subtree containing a strictly
// better solution than the incumbent):
//   * SUM savings bound — per-vertex savings of a head set are the max of
//     the single-head savings, so savings are subadditive:
//     cost(P ∪ T) ≥ cost(P) − Σ_{t∈T} saving(t | P). With r head slots left,
//     LB = cost(P) − (sum of the r largest single-head savings), each
//     saving measured by one trial probe.
//   * Seed-distance bound (table path) — dist(v) ≥ 1 + min over every seed
//     the subtree could ever own (in-neighbours ∪ P ∪ allowed candidates) of
//     d_base(s, v); the sum (SUM) or max (MAX) over v lower-bounds the cost
//     (unreachable v charge Cinf). This is the bidirectional-bound idea of
//     the SSSP literature (Wilson–Zwick in PAPERS.md): meet the forward
//     partial assignment with precomputed backward distances from the
//     candidates.
//   * Dominance elimination (both paths, every n) — with g(v) the cover the
//     player's in-neighbours In(u) provide for free, candidate t1 dominates
//     t2 when min(1 + d(t1,v), g(v)) ≤ min(1 + d(t2,v), g(v)) for every v.
//     The dominated candidates are exactly the in-neighbours:
//       - t2 ∉ In(u): at v = t2 the right side is 1, but g(t2) ≥ 2 and
//         1 + d(t1, t2) ≥ 2 for t1 ≠ t2, so nothing dominates t2;
//       - t2 ∈ In(u): g ≤ 1 + d(t2, ·) everywhere, so every other
//         candidate dominates t2.
//     So the root drops the in-neighbours in ascending order while another
//     live candidate remains (when every candidate is one, the largest
//     survives) — O(|In(u)|), no pairwise sweep. It reads In(u) off the
//     evaluator, which collected it while it was built.
//   * Zero-saving elimination (SUM only) — single-head savings shrink as P
//     grows, so a candidate saving nothing at a node saves nothing anywhere
//     below it and is dropped from the subtree.
//   * Two MAX bounds (table path), checked on the node's cover before its
//     probe. A MAX best response is a k-center problem on G − u with In(u)
//     as centres already open (PAPER.md, Theorem 2.1), and the table rows
//     are its metric. With U the base components the cover leaves unseeded
//     and r head slots left, a node is pruned, counting one pruned node,
//     when either shows every completion costs ≥ the incumbent:
//       - Unseeded components: one head seeds at most one component, so if
//         U > r at least U − r stay unseeded and every completion costs
//         ≥ (1 + U − r)·Cinf.
//       - k-center packing (Hochbaum–Shmoys): for 2 ≤ incumbent ≤ Cinf let
//         ρ = incumbent − 1. Scan vertices in id order and pick each v with
//         cover(v) > ρ that lies ≥ 2ρ − 1 from every vertex picked before
//         (row_p[v] ≥ 2ρ, compared in 64 bits). A head within ρ of two
//         picked vertices (1 + d ≤ ρ to each) would put them ≤ 2ρ − 2
//         apart by the triangle inequality, so each head serves at most
//         one. Once r + 1 are picked, any r more heads leave one of them
//         beyond ρ, and the MAX cost is ≥ ρ + 1 = the incumbent.
//     TableEvaluator::unseeded_components and TableEvaluator::packs are the
//     two tests; the first shares its count with the MAX scorer.
//     Invariant: both cut only subtrees holding no solution strictly cheaper
//     than the incumbent at the time, the incumbent only falls, and `offer`
//     replaces it only on a strict `<`. So a search that runs to completion
//     returns the same (strategy, cost) with or without them; they move only
//     the node, prune and evaluation counts, and the incumbent of a
//     node-limited search (which reaches more of the tree within its cap).
//
// A player that may buy nothing (cap 0) has one strategy, the empty one:
// the search is skipped and its cost is the current cost, read off a
// StateTable's row when solve() was given one (player_cost), else one BFS.
//
// The search is anytime: it honours SolverBudget's node limit and deadline,
// returning the incumbent with `optimal = false` and `lower_bound` = the
// smallest bound among abandoned subtrees. When it runs to completion the
// result carries the optimality certificate (`optimal = true`,
// lower_bound == cost) — this is what turns "no deviation found" into a
// *certified* Nash verdict (game/equilibrium.hpp's verify_nash_equilibrium).
#pragma once

#include <bit>

#include "solver/solver.hpp"

namespace bbng {

/// exact_bb's branch order (best saving first, ties to the smaller vertex)
/// as one unsigned word per candidate, so that a node orders its candidates
/// by a plain integer sort, descending:
///
///     key = saving · 2^b + (2^b − 1 − t),   b = bit_width(n).
///
/// A larger saving gives a larger key, and at equal savings a smaller t
/// does; saving and t read back exactly. Every saving is below n·Cinf = n³
/// (SUM ≤ (n − 1)·Cinf; MAX ≤ κ·Cinf with κ ≤ n). The table path
/// (n ≤ kTableEvaluatorLimit = 2048: savings below 2^33, b ≤ 12) keys on 64
/// bits; the CSR path above it, where savings reach n³, on WideBranchKey.
template <class Key>
class BranchKey {
 public:
  explicit BranchKey(std::uint32_t n) : bits_(std::bit_width(n)), low_((Key{1} << bits_) - 1) {}

  [[nodiscard]] Key pack(std::uint64_t saving, Vertex t) const {
    return (Key{saving} << bits_) | (low_ - t);
  }
  [[nodiscard]] std::uint64_t saving(Key key) const {
    return static_cast<std::uint64_t>(key >> bits_);
  }
  [[nodiscard]] Vertex vertex(Key key) const { return static_cast<Vertex>(low_ - (key & low_)); }

 private:
  int bits_;
  Key low_;  ///< 2^b − 1
};

/// The key exact_bb sorts on above kTableEvaluatorLimit.
__extension__ using WideBranchKey = unsigned __int128;

class ExactBranchAndBound final : public BestResponseBackend {
 public:
  ExactBranchAndBound() : BestResponseBackend("exact_bb", {.memoizes = true}) {}

  [[nodiscard]] std::string_view description() const noexcept override {
    return "certified branch-and-bound over head sets: probes scored on a base-distance "
           "table (delta oracle past n = 2048), admissible savings/seed-distance bounds "
           "and MAX unseeded-component/k-center packing bounds, in-neighbour (dominance) "
           "elimination, anytime under a node/deadline budget";
  }

 private:
  /// `budget.node_limit` caps expanded search-tree nodes (0 = unlimited);
  /// `budget.incremental` and `budget.core` are ignored (the scoring path is
  /// fixed by n). `pool` is unused — the DFS is sequential (callers
  /// parallelise across players/jobs instead). A non-null `state` feeds the
  /// table's fill and the cap-0 cost.
  [[nodiscard]] SolverResult search(const Digraph& g, Vertex player, CostVersion version,
                                    const SolverBudget& budget, std::uint32_t cap,
                                    ThreadPool* pool, StateTable* state) const override;
};

}  // namespace bbng
