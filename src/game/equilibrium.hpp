// Equilibrium verification.
//
// verify_equilibrium() certifies a realization as a pure Nash equilibrium by
// computing every player's exact best response via full enumeration (so it
// is only feasible when every player's candidate count fits the solver's
// exact limit). verify_nash_equilibrium() is its solver-subsystem successor:
// it answers every player's query through a registry backend (the certified
// branch-and-bound by default) under an anytime budget, scans *all* players,
// and reports the maximum regret found — a certified Nash / ε-Nash verdict
// rather than swap-stability. verify_swap_equilibrium() checks the weaker
// single-head-swap stability of Section 6 (every Nash equilibrium is also a
// swap equilibrium), which is polynomial and scales to the large
// constructions. Each player's swaps go through scan_first_improving_swap
// (game/best_response.hpp), on the evaluator with_move_evaluator picks, and
// the sweep is batched across players on a ThreadPool when one is given.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "game/best_response.hpp"
#include "game/game.hpp"
#include "graph/digraph.hpp"
#include "graph/multi_bfs.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/solver.hpp"

namespace bbng {

struct EquilibriumReport {
  bool stable = false;
  Vertex deviator = 0;                      ///< first player with an improvement
  std::vector<Vertex> improving_strategy;   ///< their cheaper strategy
  std::uint64_t old_cost = 0;
  std::uint64_t new_cost = 0;
  std::uint64_t strategies_checked = 0;
  /// Deviations scored by the incremental oracle without a full BFS
  /// recompute (0 on the naive and table evaluators).
  std::uint64_t bfs_avoided = 0;
};

/// Registry mirror of one swap-stability sweep (`eq.swap.*`), published per
/// report.
inline const obs::CounterTable<EquilibriumReport>& swap_audit_counters() {
  static const obs::CounterTable<EquilibriumReport> table{
      {"eq.swap.audits", [](const EquilibriumReport&) { return std::uint64_t{1}; }},
      {"eq.swap.strategies_checked", &EquilibriumReport::strategies_checked},
      {"eq.swap.bfs_avoided", &EquilibriumReport::bfs_avoided},
  };
  return table;
}

/// Exact Nash check. Throws if some player's candidate space exceeds the
/// solver's exact limit.
[[nodiscard]] EquilibriumReport verify_equilibrium(const Digraph& g, CostVersion version,
                                                   std::uint64_t exact_limit = 2'000'000,
                                                   ThreadPool* pool = nullptr);

/// Swap-stability check (single-head deviations only). Polynomial:
/// O(Σ_u b_u · n) strategy evaluations.
/// The reported deviator is always the smallest unstable player with its
/// first improving swap in scan order, independent of `pool` width. A null
/// pool runs at width 1, which scans players in order and stops at the first
/// deviator, so `strategies_checked` is a deterministic count there; a wider
/// pool may score more candidates, which makes it a work stat.
/// Above kTableEvaluatorLimit `incremental` and `core` pick the scan's
/// evaluator (with_move_evaluator; bit-identical verdicts).
[[nodiscard]] EquilibriumReport verify_swap_equilibrium(const Digraph& g, CostVersion version,
                                                        ThreadPool* pool = nullptr,
                                                        bool incremental = true,
                                                        GraphCore core = GraphCore::kCsr);

/// Certified Nash / ε-Nash verdict from the solver subsystem.
///
/// Semantics: `stable` means the backend found no improving deviation for
/// any player; it is a *Nash certificate* only when `certified` is also true
/// (every per-player solve closed with an optimality certificate — always
/// the case for "exact_bb" within budget). When `stable` is false the
/// reported deviation is a certificate of non-equilibrium regardless of
/// `certified`. `epsilon` is the largest additive regret found across
/// players: exact when certified (0 ⇔ Nash; otherwise the state is an
/// ε-Nash equilibrium for this ε and no smaller), a lower bound otherwise.
struct NashReport {
  bool stable = false;
  bool certified = false;
  Vertex deviator = 0;                     ///< first player with an improvement
  std::vector<Vertex> improving_strategy;  ///< their cheaper strategy
  std::uint64_t old_cost = 0;
  std::uint64_t new_cost = 0;
  std::uint64_t epsilon = 0;               ///< max additive regret across players
  std::uint64_t players_certified = 0;     ///< players with an optimality
                                           ///< certificate (closed solves plus
                                           ///< prepass trivial-bound skips)
  std::uint64_t players_skipped = 0;       ///< of those, certified by the
                                           ///< prepass without a backend solve
  /// Work counters of the current-cost prepass. `prepass.settled` is exactly
  /// the row scans n independent BFS runs would perform for the same costs,
  /// so settled / row_scans is the measured batching gain of this audit
  /// (tracked in BENCH_multi_bfs.json). All four read 0 for n ≤ 64, where the
  /// costs come off the audit's StateTable and no sweep runs.
  MultiBfsStats prepass;
};

/// Registry mirror of one Nash audit (`audit.nash.*`): the audit-level
/// skip/certify outcomes, published per report (per-solve work is the
/// backends' own `solver.*` counters).
inline const obs::CounterTable<NashReport>& nash_audit_counters() {
  static const obs::CounterTable<NashReport> table{
      {"audit.nash.audits", [](const NashReport&) { return std::uint64_t{1}; }},
      {"audit.nash.players_skipped", &NashReport::players_skipped},
      {"audit.nash.players_certified", &NashReport::players_certified},
  };
  return table;
}

/// Scan every player with the named registry backend (default: the
/// certified branch-and-bound) under `budget` (per player). Throws
/// std::invalid_argument on an unknown solver name.
///
/// The audit first computes EVERY player's current cost at once
/// (state_current_costs below): for n ≤ 64 off the StateTable its player
/// loop shares, otherwise in ⌈n/64⌉ packed MultiBfs sweeps over the shared
/// underlying graph (on `budget.core`, batched_current_costs below), instead
/// of letting each per-player solve pay its own full BFS; players whose
/// current cost already equals the trivial admissible lower bound
/// (solver.hpp) are certified with regret 0 without a backend solve. A skipped player provably has no improving
/// deviation, so the regret report — stable/deviator/improving_strategy/
/// old_cost/new_cost/epsilon — is what solving every player would give.
/// certified/players_certified can only gain from a skip: it is a genuine
/// optimality certificate even when a heuristic backend would have returned
/// the same cost uncertified (with "exact_bb" they match exactly). The report
/// holds the verdict, not the search work: each backend solve publishes its
/// own `solver.<name>.*` counters (nodes, pruned, evaluated, bfs_avoided),
/// which shrink when solves are skipped.
///
/// `budget_caps` (size n when given) audits the state as a CHURN state:
/// player u's deviations are solved under budget cap budget_caps[u]
/// (SolverBudget::budget_cap) instead of its current out-degree, so a joined
/// player that has not bought its first strategy yet, or a budget grown at a
/// fixed neighbourhood, is audited over its real strategy space. An entry of
/// 0 means the player is retired and must already hold the empty strategy
/// (enforced). The trivial-bound prepass skip stays sound under caps — a
/// current cost at the admissible floor beats every strategy of every size.
[[nodiscard]] NashReport verify_nash_equilibrium(
    const Digraph& g, CostVersion version, const SolverBudget& budget = {},
    const std::string& solver = "exact_bb", ThreadPool* pool = nullptr,
    const std::vector<std::uint32_t>* budget_caps = nullptr);

/// Every player's exact current cost from ⌈n/64⌉ packed MultiBfs sweeps over
/// the one shared underlying graph (on `core`), instead of n per-seed BFS
/// runs — bit-identical to StrategyEvaluator::current_cost per player.
/// Shared by verify_nash_equilibrium's prepass and the churn engine's bulk
/// certificate refresh. `stats` accumulates sweep work counters when given.
[[nodiscard]] std::vector<std::uint64_t> batched_current_costs(const Digraph& g,
                                                               CostVersion version,
                                                               GraphCore core = GraphCore::kCsr,
                                                               ThreadPool* pool = nullptr,
                                                               MultiBfsStats* stats = nullptr);

/// Every player's exact current cost for a loop over the players of
/// `state`'s graph that shares `state` among its solves. For n ≤ 64 the costs
/// are read off the table, filled here, so the loop's first solve already
/// finds it filled and the state's all-pairs distances are computed once.
/// Above 64 it is batched_current_costs (on `core`, `stats` as there).
[[nodiscard]] std::vector<std::uint64_t> state_current_costs(StateTable& state,
                                                             CostVersion version,
                                                             GraphCore core, ThreadPool* pool,
                                                             MultiBfsStats* stats = nullptr);

/// Lemma 2.2 sufficient condition: cMAX(u) == 1, or cMAX(u) ≤ 2 with u in no
/// brace ⇒ u is playing a best response in BOTH versions. Returns the number
/// of players certified by the lemma (n ⇒ the graph is an equilibrium in
/// both versions without any search).
[[nodiscard]] std::uint32_t count_lemma22_certified(const Digraph& g);

}  // namespace bbng
