#include "solver/swap_ladder.hpp"

#include <algorithm>

namespace bbng {

SolverResult SwapLadderSolver::search(const Digraph& g, Vertex player, CostVersion version,
                                      const SolverBudget& budget, std::uint32_t /*cap*/,
                                      ThreadPool* pool, StateTable* /*state*/) const {
  // node_limit IS the legacy exact_limit, verbatim: 0 disables the exact
  // path (it never meant "unlimited" here), preserving pre-registry
  // behaviour bit-for-bit for every exact_limit a caller ever passed.
  const BestResponseSolver ladder(version, budget.node_limit, budget.incremental, budget.core);

  if (ladder.exact_feasible(g, player)) {
    SolverResult result = ladder.exact(g, player, pool);
    result.lower_bound = result.cost;
    return result;
  }

  auto [coarse, result] =
      greedy_swap_descent(g, player, version, budget.incremental, budget.core);
  result.evaluated += coarse.evaluated;
  result.bfs_avoided += coarse.bfs_avoided;
  if (coarse.cost < result.cost) {
    result.strategy = std::move(coarse.strategy);
    result.cost = coarse.cost;
  }
  // A heuristic must never recommend a deviation worse than staying put.
  if (result.cost >= result.current_cost) {
    result.strategy.assign(g.out_neighbors(player).begin(), g.out_neighbors(player).end());
    std::sort(result.strategy.begin(), result.strategy.end());
    result.cost = result.current_cost;
  }
  result.optimal = false;
  result.lower_bound = trivial_cost_lower_bound(g.num_vertices(), version);
  return result;
}

}  // namespace bbng
