#include "solver/portfolio.hpp"

#include <algorithm>

#include "facility/reduction.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace bbng {

SolverResult PortfolioSolver::search(const Digraph& g, Vertex player, CostVersion version,
                                     const SolverBudget& budget, std::uint32_t cap,
                                     ThreadPool* /*pool*/, StateTable* /*state*/) const {
  const Timer timer;
  const std::uint32_t n = g.num_vertices();

  SolverResult result;
  const BestResponseSolver ladder(version, /*exact_limit=*/1, budget.incremental, budget.core);

  // Staying put is the incumbent every racer must beat.
  const SolverResult baseline = ladder.swap_improve(g, player);
  result.current_cost = baseline.current_cost;
  result.cost = result.current_cost;
  result.strategy.assign(g.out_neighbors(player).begin(), g.out_neighbors(player).end());
  result.evaluated = baseline.evaluated;
  result.bfs_avoided = baseline.bfs_avoided;

  const auto offer = [&](const SolverResult& br) {
    if (br.cost < result.cost) {
      result.cost = br.cost;
      result.strategy = br.strategy;
    }
  };
  const auto expired = [&] {
    return budget.deadline_seconds > 0 && timer.elapsed_seconds() >= budget.deadline_seconds;
  };

  // Racer 1: swap descent from the current strategy (the swap baseline).
  offer(baseline);

  // Racer 2: greedy construction from scratch, refined by swap descent.
  if (cap >= 1 && !expired()) {
    const GreedySwapDescent descent = greedy_swap_descent(g, player, version, budget.incremental, budget.core);
    result.evaluated += descent.coarse.evaluated + descent.refined.evaluated;
    result.bfs_avoided += descent.coarse.bfs_avoided + descent.refined.bfs_avoided;
    offer(descent.coarse);
    offer(descent.refined);
  }

  // Racer 3: facility-seeded start (Theorem 2.1 backwards), refined by swap
  // descent. Seeding randomness is derived from the instance so the racer —
  // and with it every engine artifact — is deterministic.
  if (cap >= 1 && n >= 3 && !expired()) {
    const std::uint64_t seed = g.hash() ^ (0x9e3779b97f4a7c15ULL * (std::uint64_t{player} + 1));
    const std::vector<Vertex> seeded = facility_seed_strategy(g, player, version, seed);
    const SolverResult refined = ladder.swap_improve(g, player, seeded);
    result.evaluated += refined.evaluated;
    result.bfs_avoided += refined.bfs_avoided;
    offer(refined);
  }

  std::sort(result.strategy.begin(), result.strategy.end());

  // Heuristic bound; a cost that touches it, or a one-point strategy space,
  // is certified outright.
  result.lower_bound = std::min(trivial_cost_lower_bound(n, version), result.cost);
  result.optimal = binomial(n - 1, cap) == 1 || result.cost == result.lower_bound;
  return result;
}

}  // namespace bbng
