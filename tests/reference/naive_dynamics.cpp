#include "reference/naive_dynamics.hpp"

#include <numeric>
#include <vector>

#include "game/cost.hpp"
#include "solver/registry.hpp"

namespace bbng {

DynamicsResult naive_best_response_dynamics(const Digraph& initial,
                                            const DynamicsConfig& config) {
  const std::uint32_t n = initial.num_vertices();
  const BestResponseBackend& solver = find_solver(config.solver);
  const SolverBudget budget{
      config.solver_deadline_seconds,
      config.solver_node_limit > 0 ? config.solver_node_limit : config.exact_limit,
      config.incremental, config.graph_core};
  TranspositionCache cache;
  Rng rng(config.seed);
  std::vector<std::uint32_t> caps = config.budgets.empty() ? initial.budgets() : config.budgets;

  DynamicsResult result;
  result.graph = initial;
  SeenStateSet seen_states;
  seen_states.insert(result.graph);
  if (config.record_trajectory) result.trajectory.push_back(social_cost(result.graph.underlying()));

  std::vector<Vertex> order(n);
  std::iota(order.begin(), order.end(), 0U);
  for (std::uint64_t round = 0; round < config.max_rounds; ++round) {
    if (config.schedule == Schedule::RandomPermutation) {
      rng.shuffle(order);
    } else if (config.schedule == Schedule::UniformRandom) {
      for (auto& slot : order) slot = static_cast<Vertex>(rng.next_below(n));
    }
    bool any_move = false;
    for (const Vertex u : order) {
      if (caps[u] == 0) continue;
      std::vector<Vertex> next_strategy;
      if (config.policy == MovePolicy::FirstImprovingSwap) {
        if (result.graph.out_degree(u) == 0) continue;
        SolverResult scan = scan_first_improving_swap(result.graph, u, config.version,
                                                      config.incremental, config.graph_core);
        result.evaluations += scan.evaluated;
        result.bfs_avoided += scan.bfs_avoided;
        result.all_moves_exact = false;
        if (!scan.improves()) continue;
        next_strategy = std::move(scan.strategy);
      } else {
        SolverBudget move_budget = budget;
        move_budget.budget_cap = caps[u];
        const SolverResult br =
            solver.solve(result.graph, u, config.version, move_budget, nullptr, &cache);
        result.evaluations += br.evaluated;
        result.bfs_avoided += br.bfs_avoided;
        result.all_moves_exact = result.all_moves_exact && br.optimal;
        if (!br.improves() && result.graph.out_degree(u) == caps[u]) continue;
        next_strategy = br.strategy;
      }
      result.graph.set_strategy(u, next_strategy);
      ++result.moves;
      any_move = true;
      if (config.schedule == Schedule::RoundRobin && !seen_states.insert(result.graph)) {
        result.cycle_detected = true;
        result.rounds = round + 1;
        result.hash_collisions = seen_states.collisions();
        return result;
      }
    }
    result.rounds = round + 1;
    if (config.record_trajectory) {
      result.trajectory.push_back(social_cost(result.graph.underlying()));
    }
    if (!any_move && config.schedule != Schedule::UniformRandom) {
      result.converged = true;
      break;
    }
  }
  result.hash_collisions = seen_states.collisions();
  return result;
}

}  // namespace bbng
