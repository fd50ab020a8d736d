#include "solver/portfolio.hpp"

#include <algorithm>

#include "facility/reduction.hpp"
#include "game/cost.hpp"
#include "obs/metrics.hpp"
#include "obs/timing.hpp"
#include "obs/trace.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace bbng {

namespace {

/// Publish one terminal race's work (solver.portfolio.*), field-wise from
/// the result the caller receives. Like the swap ladder, the capped path
/// recurses on a normalized copy and returns the inner result verbatim, so
/// only the inner (terminal) invocation publishes.
void publish_portfolio(const SolverResult& result) {
  if (!obs::kCompiledIn || !obs::enabled()) return;
  static const obs::CounterId kSolves = obs::register_counter("solver.portfolio.solves");
  static const obs::CounterId kEvaluated = obs::register_counter("solver.portfolio.evaluated");
  static const obs::CounterId kBfsAvoided =
      obs::register_counter("solver.portfolio.bfs_avoided");
  obs::add(kSolves, 1);
  obs::add(kEvaluated, result.evaluated);
  obs::add(kBfsAvoided, result.bfs_avoided);
}

}  // namespace

SolverResult PortfolioSolver::solve(const Digraph& g, Vertex player, CostVersion version,
                                    const SolverBudget& budget, ThreadPool* pool,
                                    TranspositionCache* cache) const {
  (void)pool;
  (void)cache;
  BBNG_REQUIRE(player < g.num_vertices());
  static const obs::HistogramId kSolveHist = obs::register_histogram("solver.solve.portfolio");
  obs::ScopedTimer span(kSolveHist, "solve:portfolio");
  span.arg("player", std::uint64_t{player});
  const std::uint32_t b = effective_budget_cap(g, player, budget);
  if (b != g.out_degree(player)) {
    // Every racer (swap descent, greedy fill, facility seeding) assumes
    // budget == out-degree; a capped query races on a degree-normalized copy
    // and re-anchors current_cost to the REAL current strategy. With cap
    // below the current degree the returned cost may exceed it — a forced
    // shrink is allowed to hurt.
    SolverResult result = solve(normalize_player_degree(g, player, b), player, version,
                                budget, pool, cache);
    result.current_cost = vertex_cost(g, player, version);
    return result;
  }
  const Timer timer;
  const std::uint32_t n = g.num_vertices();

  SolverResult result;
  result.solver = std::string(name());

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
  if (b >= 1 && !expired()) {
    const GreedySwapDescent descent = greedy_swap_descent(g, player, version, budget.incremental, budget.core);
    result.evaluated += descent.coarse.evaluated + descent.refined.evaluated;
    result.bfs_avoided += descent.coarse.bfs_avoided + descent.refined.bfs_avoided;
    offer(descent.coarse);
    offer(descent.refined);
  }

  // Racer 3: facility-seeded start (Theorem 2.1 backwards), refined by swap
  // descent. Seeding randomness is derived from the instance so the racer —
  // and with it every engine artifact — is deterministic.
  if (b >= 1 && n >= 3 && !expired()) {
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
  result.optimal = binomial(n - 1, b) == 1 || result.cost == result.lower_bound;
  publish_portfolio(result);
  return result;
}

}  // namespace bbng
