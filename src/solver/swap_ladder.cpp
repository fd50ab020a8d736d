#include "solver/swap_ladder.hpp"

#include <algorithm>

#include "game/cost.hpp"
#include "obs/metrics.hpp"
#include "obs/timing.hpp"
#include "obs/trace.hpp"

namespace bbng {

namespace {

/// Publish one terminal solve's work (solver.swap.*), field-wise from the
/// result the caller receives. The capped path recurses on a normalized
/// copy and returns the inner result verbatim, so only the inner (terminal)
/// invocation publishes — one query, one publish.
void publish_swap(const SolverResult& result) {
  if (!obs::kCompiledIn || !obs::enabled()) return;
  static const obs::CounterId kSolves = obs::register_counter("solver.swap.solves");
  static const obs::CounterId kEvaluated = obs::register_counter("solver.swap.evaluated");
  static const obs::CounterId kBfsAvoided = obs::register_counter("solver.swap.bfs_avoided");
  obs::add(kSolves, 1);
  obs::add(kEvaluated, result.evaluated);
  obs::add(kBfsAvoided, result.bfs_avoided);
}

}  // namespace

SolverResult SwapLadderSolver::solve(const Digraph& g, Vertex player, CostVersion version,
                                     const SolverBudget& budget, ThreadPool* pool,
                                     TranspositionCache* cache) const {
  (void)cache;
  static const obs::HistogramId kSolveHist = obs::register_histogram("solver.solve.swap_ladder");
  obs::ScopedTimer span(kSolveHist, "solve:swap_ladder");
  span.arg("player", std::uint64_t{player});
  const std::uint32_t cap = effective_budget_cap(g, player, budget);
  if (cap != g.out_degree(player)) {
    // The ladder's move set (exact enumeration at the current degree, greedy
    // fill, single-head swaps) assumes budget == out-degree, so a capped
    // query runs on a degree-normalized copy; only current_cost is
    // re-anchored to the REAL current strategy afterwards. With cap below
    // the current degree the returned cost may exceed it — a forced shrink
    // is allowed to hurt.
    SolverResult result = solve(normalize_player_degree(g, player, cap), player, version,
                                budget, pool, cache);
    result.current_cost = vertex_cost(g, player, version);
    return result;
  }
  // node_limit IS the legacy exact_limit, verbatim: 0 disables the exact
  // path (it never meant "unlimited" here), preserving pre-registry
  // behaviour bit-for-bit for every exact_limit a caller ever passed.
  const BestResponseSolver ladder(version, budget.node_limit, budget.incremental, budget.core);

  if (ladder.exact_feasible(g, player)) {
    SolverResult result = ladder.exact(g, player, pool);
    result.solver = std::string(name());
    result.lower_bound = result.cost;
    publish_swap(result);
    return result;
  }

  SolverResult result;
  result.solver = std::string(name());

  auto [coarse, refined] =
      greedy_swap_descent(g, player, version, budget.incremental, budget.core);
  result.evaluated = coarse.evaluated + refined.evaluated;
  result.bfs_avoided = coarse.bfs_avoided + refined.bfs_avoided;
  if (coarse.cost < refined.cost) {
    refined.strategy = std::move(coarse.strategy);
    refined.cost = coarse.cost;
  }
  // A heuristic must never recommend a deviation worse than staying put.
  if (refined.cost >= refined.current_cost) {
    refined.strategy.assign(g.out_neighbors(player).begin(), g.out_neighbors(player).end());
    std::sort(refined.strategy.begin(), refined.strategy.end());
    refined.cost = refined.current_cost;
  }
  result.strategy = std::move(refined.strategy);
  result.cost = refined.cost;
  result.current_cost = refined.current_cost;
  result.optimal = false;
  result.lower_bound = trivial_cost_lower_bound(g.num_vertices(), version);
  publish_swap(result);
  return result;
}

}  // namespace bbng
