#include "game/dynamics.hpp"

#include <numeric>

#include "game/cost.hpp"
#include "game/strategy_eval.hpp"
#include "solver/registry.hpp"

namespace bbng {
namespace {

/// Canonical byte encoding of a realization: per player, the out-degree then
/// the sorted head list (Digraph keeps owner lists sorted). Two realizations
/// on the same vertex count are equal iff their encodings are.
std::string canonical_state_encoding(const Digraph& g) {
  std::string out;
  out.reserve(4 * (std::size_t{g.num_vertices()} + g.num_arcs()));
  const auto append_u32 = [&out](std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      out.push_back(static_cast<char>((value >> shift) & 0xFF));
    }
  };
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    append_u32(g.out_degree(u));
    for (const Vertex v : g.out_neighbors(u)) append_u32(v);
  }
  return out;
}

}  // namespace

bool SeenStateSet::insert(const Digraph& g) {
  const std::uint64_t hash = hasher_ != nullptr ? hasher_(g) : g.hash();
  std::string encoding = canonical_state_encoding(g);
  auto& bucket = buckets_[hash];
  for (const std::string& stored : bucket) {
    if (stored == encoding) return false;  // a genuine repeat, byte-verified
  }
  if (!bucket.empty()) ++collisions_;  // hash-equal yet distinct — not a cycle
  bucket.push_back(std::move(encoding));
  ++states_;
  return true;
}

DynamicsResult run_best_response_dynamics(const Digraph& initial, const DynamicsConfig& config,
                                          ThreadPool* pool) {
  const std::uint32_t n = initial.num_vertices();
  const BestResponseBackend& solver = find_solver(config.solver);
  const SolverBudget budget{
      config.solver_deadline_seconds,
      config.solver_node_limit > 0 ? config.solver_node_limit : config.exact_limit,
      config.incremental, config.graph_core};
  // Certified backends answer identical queries during a run (a player whose
  // relevant neighbourhood did not change between visits); the cache makes
  // those hits free.
  TranspositionCache cache;
  Rng rng(config.seed);

  // Budget caps: explicit per-player budgets when the config carries them
  // (churn states, where budget and degree diverge), else the classic
  // implicit reading — every player's budget IS its initial out-degree.
  std::vector<std::uint32_t> caps = config.budgets;
  if (caps.empty()) {
    caps = initial.budgets();
  } else {
    BBNG_REQUIRE(caps.size() == n);
  }

  DynamicsResult result;
  result.graph = initial;

  SeenStateSet seen_states;
  seen_states.insert(result.graph);
  if (config.record_trajectory) {
    result.trajectory.push_back(social_cost(result.graph.underlying(), pool));
  }

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
      // Gate on BUDGET, not current degree: a zero-budget player has no move
      // under any policy, but a zero-degree player with budget left (a churn
      // join) must still get its turn to buy a first strategy. Swap moves
      // preserve strategy size, so zero-degree players stay no-ops under
      // FirstImprovingSwap only.
      if (caps[u] == 0) continue;
      std::vector<Vertex> next_strategy;
      if (config.policy == MovePolicy::FirstImprovingSwap) {
        if (result.graph.out_degree(u) == 0) continue;
        SolverResult scan = scan_first_improving_swap(result.graph, u, config.version,
                                                      config.incremental, config.graph_core);
        result.evaluations += scan.evaluated;
        result.bfs_avoided += scan.bfs_avoided;
        result.all_moves_exact = false;  // swap moves never certify Nash
        if (!scan.improves()) continue;
        next_strategy = std::move(scan.strategy);
      } else {
        SolverBudget move_budget = budget;
        move_budget.budget_cap = caps[u];
        const SolverResult br =
            solver.solve(result.graph, u, config.version, move_budget, pool, &cache);
        result.evaluations += br.evaluated;
        result.bfs_avoided += br.bfs_avoided;
        result.all_moves_exact = result.all_moves_exact && br.optimal;
        // A non-improving answer is still applied when the degree has not
        // caught up with the cap yet — dynamics enforces budget-sized
        // strategies on a player's first visit after a budget change.
        if (!br.improves() && result.graph.out_degree(u) == caps[u]) continue;
        next_strategy = br.strategy;
      }
      result.graph.set_strategy(u, next_strategy);
      ++result.moves;
      any_move = true;
      if (config.schedule == Schedule::RoundRobin) {
        if (!seen_states.insert(result.graph)) {
          result.cycle_detected = true;
          result.rounds = round + 1;
          result.hash_collisions = seen_states.collisions();
          return result;
        }
      }
    }
    result.rounds = round + 1;
    if (config.record_trajectory) {
      result.trajectory.push_back(social_cost(result.graph.underlying(), pool));
    }
    if (!any_move) {
      // UniformRandom may simply have missed a player with an improvement;
      // only schedules that scan every player certify convergence.
      result.converged = config.schedule != Schedule::UniformRandom;
      if (result.converged) {
        result.hash_collisions = seen_states.collisions();
        return result;
      }
    }
  }
  result.hash_collisions = seen_states.collisions();
  return result;
}

}  // namespace bbng
