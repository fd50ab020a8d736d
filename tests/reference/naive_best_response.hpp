// Naive exact best response: the test-only brute-force reference.
//
// Enumerates all C(n−1, b) head sets of a player in rank order with
// CombinationIterator and scores each with one multi-source BFS
// (StrategyEvaluator::evaluate), breaking cost ties to the lexicographically
// least strategy. It shares no scoring code with BestResponseSolver::exact
// (which walks the same head sets on TableEvaluator) or with exact_bb, so
// the differential suites can hold both against it.
#pragma once

#include "game/best_response.hpp"
#include "game/game.hpp"
#include "graph/digraph.hpp"

namespace bbng {

/// The exact best response of `player` at its current out-degree:
/// strategy, cost, current_cost, evaluated = C(n−1, b) and optimal = true,
/// with bfs_avoided = 0 (every candidate is one BFS).
[[nodiscard]] SolverResult naive_exact_best_response(const Digraph& g, Vertex player,
                                                     CostVersion version);

}  // namespace bbng
