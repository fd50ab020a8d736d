// Best-response solvers.
//
// Computing a best response is NP-hard (Theorem 2.1: k-center / k-median
// reduce to it), so the library offers a solver ladder:
//
//   * exact   — enumerate all C(n-1, b) strategies as one lexicographic
//               walk (one head added per depth, one cost_with_head per
//               leaf) on the evaluator exact_bb scores on
//               (with_table_evaluator: TableEvaluator up to
//               kTableEvaluatorLimit, CsrDeltaEvaluator above). Ties go to
//               the lexicographically least strategy. A wider pool splits
//               large walks on the table by first head, with the same
//               result. Only attempted when the candidate count is below a
//               limit.
//   * greedy  — build the strategy one arc at a time, each arc chosen to
//               minimise the player's cost given the arcs picked so far
//               (the classical greedy for k-center/k-median-like objectives).
//   * swap    — hill-climb from a start strategy by single-head swaps until
//               no swap improves (the move set of Alon et al.'s basic games,
//               and the "weak equilibrium" moves of Section 6).
//
// The registry's "swap" backend (solver/swap_ladder.hpp) is the one ladder
// over these rungs: exact when feasible, otherwise greedy refined by swap.
//
// All solvers return a SolverResult holding the player's *cost under the
// returned strategy*; they never mutate the input graph.
//
// greedy and swap each have one body, the evaluator-generic greedy_with /
// swap_improve_with below, as does the first-improving swap scan of the
// dynamics and the swap audit. BestResponseSolver runs them on the evaluator
// with_move_evaluator (game/strategy_eval.hpp) picks: TableEvaluator, as
// for exact search, when n ≤ kTableEvaluatorLimit; above it the incremental
// delta oracle by default (consecutive candidates differ by one head, so
// each evaluation is a few dynamic-BFS edge operations instead of a fresh
// multi-source BFS), or NaiveEvaluator (one full BFS per probe) under
// incremental = false. All agree bit-for-bit (tests/test_delta_eval.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "game/game.hpp"
#include "game/strategy_eval.hpp"
#include "graph/digraph.hpp"
#include "parallel/thread_pool.hpp"

namespace bbng {

/// What every best-response solver returns: the move-set bodies below and
/// every registry backend (solver/solver.hpp). `lower_bound` is always an
/// admissible bound on the true best-response cost (trivial for
/// heuristics); `optimal` is the certificate that `cost` *is* that optimum
/// (full enumeration, greedy at b = 0, a closed exact_bb search). `cost`
/// never exceeds `current_cost` when the player's current strategy is
/// feasible (the effective budget cap ≥ its out-degree — always true
/// without an explicit SolverBudget::budget_cap): staying put is then always
/// a candidate. Under a cap below the current degree, a forced shrink may
/// cost more than staying put, so `cost > current_cost` is legitimate there.
struct SolverResult {
  std::string solver;                ///< registry name of the producing backend
                                     ///< (empty from the move-set bodies)
  std::vector<Vertex> strategy;      ///< sorted heads of the incumbent
  std::uint64_t cost = 0;            ///< player's cost under `strategy`
  std::uint64_t current_cost = 0;    ///< player's cost before deviating
  std::uint64_t lower_bound = 0;     ///< admissible LB on the optimal cost
                                     ///< (left 0 by the move-set bodies)
  bool optimal = false;              ///< certificate: cost == optimum
  std::uint64_t nodes_explored = 0;  ///< search-tree nodes expanded
  std::uint64_t nodes_pruned = 0;    ///< subtrees cut by bounds/dominance
  std::uint64_t evaluated = 0;       ///< candidate strategies scored
  /// Candidates scored by the incremental delta oracle without any full BFS
  /// recompute (0 on the naive and table evaluators, so 0 from every
  /// solver and move set up to the table limit; above it the delta
  /// evaluator may report a nonzero count).
  /// evaluated − bfs_avoided bounds the full-BFS-equivalent evaluations
  /// performed.
  std::uint64_t bfs_avoided = 0;

  [[nodiscard]] bool improves() const noexcept { return cost < current_cost; }
};

class BestResponseSolver {
 public:
  /// `exact_limit` caps the number of candidates full enumeration may score.
  /// `incremental` and `core` pick greedy/swap's evaluator through
  /// with_move_evaluator above kTableEvaluatorLimit. Every choice returns
  /// bit-identical costs, strategies and evaluation counts.
  explicit BestResponseSolver(CostVersion version, std::uint64_t exact_limit = 2'000'000,
                              bool incremental = true, GraphCore core = GraphCore::kCsr)
      : version_(version), exact_limit_(exact_limit), incremental_(incremental), core_(core) {}

  /// Number of candidate strategies of player u (C(n-1, b_u), clamped).
  [[nodiscard]] static std::uint64_t candidate_count(const Digraph& g, Vertex u);

  /// True iff exact() would accept this player.
  [[nodiscard]] bool exact_feasible(const Digraph& g, Vertex u) const {
    return candidate_count(g, u) <= exact_limit_;
  }

  /// Full enumeration. Throws std::invalid_argument when over the limit.
  /// `pool` (nullptr = the shared pool) of width 1 walks serially; a wider
  /// one splits walks of at least 4,096 head sets on the table by first
  /// head, bit-identically. The delta branch always walks serially.
  [[nodiscard]] SolverResult exact(const Digraph& g, Vertex u, ThreadPool* pool = nullptr) const;

  /// Greedy arc-by-arc construction (b evaluations of ≤ n-1 candidates each).
  [[nodiscard]] SolverResult greedy(const Digraph& g, Vertex u) const;

  /// Single-head hill climbing from `start` (defaults to current strategy).
  [[nodiscard]] SolverResult swap_improve(
      const Digraph& g, Vertex u,
      std::optional<std::vector<Vertex>> start = std::nullopt) const;

 private:
  CostVersion version_;
  std::uint64_t exact_limit_;
  bool incremental_;
  GraphCore core_;
};

/// The greedy and swap descent bodies over any exact evaluator with the
/// DeltaEvaluatorT interface (NaiveEvaluator, DeltaEvaluator,
/// CsrDeltaEvaluator, TableEvaluator). One body per descent keeps the probe
/// order — and with it every strategy, cost and evaluation count — identical
/// whichever evaluator scores it; exact_bb seeds its incumbent through these on the
/// evaluator its search then reuses.
///
/// greedy_with: `eval` must hold no heads. Adds `budget` heads, each the
/// lowest-cost probe (ties to the smallest id), and leaves them committed.
template <class Eval>
[[nodiscard]] SolverResult greedy_with(Eval& eval, std::uint32_t budget);

/// swap_improve_with: `eval` must hold exactly the heads of `start`. Runs
/// first-improvement single-head swaps to a local optimum and leaves it
/// committed.
template <class Eval>
[[nodiscard]] SolverResult swap_improve_with(Eval& eval, std::vector<Vertex> start);

/// First improving single-head swap of `player`'s incumbent strategy.
/// Scans head positions in (sorted) strategy order and targets in vertex
/// order with an early exit — the ONE deterministic scan order shared by the
/// dynamics engine's FirstImprovingSwap policy and verify_swap_equilibrium.
/// The result improves() iff a swap was found: `strategy` is then the swapped
/// strategy (sorted) and `cost` its cost; at a swap-local optimum it is the
/// incumbent at `current_cost`. `evaluated` counts the swaps probed. It runs
/// the body below on whichever evaluator with_move_evaluator picks, so the
/// result (bar bfs_avoided) is the same for every `incremental` and `core`.
[[nodiscard]] SolverResult scan_first_improving_swap(const Digraph& g, Vertex player,
                                                     CostVersion version, bool incremental = true,
                                                     GraphCore core = GraphCore::kCsr);

/// The scan body over any evaluator above, which must hold exactly the
/// player's incumbent strategy; on return its head set is unspecified.
template <class Eval>
[[nodiscard]] SolverResult scan_first_improving_swap_with(Eval& eval);

}  // namespace bbng
