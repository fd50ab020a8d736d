// Unit tests for the best-response dynamics engine: convergence detection,
// schedules, and exactness bookkeeping (Section 8 machinery), and the skip
// of unchanged queries held against the re-solve-every-visit reference
// (tests/reference/naive_dynamics.hpp).
#include "game/dynamics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "game/equilibrium.hpp"
#include "graph/connectivity.hpp"
#include "graph/cycles.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "reference/naive_dynamics.hpp"

namespace bbng {
namespace {

TEST(Dynamics, UnitBudgetGamesConvergeToNash) {
  Rng rng(401);
  for (int round = 0; round < 6; ++round) {
    const std::vector<std::uint32_t> budgets(10, 1);
    const Digraph initial = random_profile(budgets, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      DynamicsConfig config;
      config.version = version;
      config.max_rounds = 200;
      config.seed = static_cast<std::uint64_t>(round);
      const DynamicsResult result = run_best_response_dynamics(initial, config);
      ASSERT_TRUE(result.converged) << "round " << round << " " << to_string(version);
      EXPECT_TRUE(result.all_moves_exact);
      EXPECT_TRUE(verify_equilibrium(result.graph, version).stable);
    }
  }
}

TEST(Dynamics, ConvergedStateKeepsBudgets) {
  Rng rng(402);
  const auto budgets = random_budgets(9, 10, rng);
  const Digraph initial = random_profile(budgets, rng);
  DynamicsConfig config;
  config.version = CostVersion::Sum;
  const DynamicsResult result = run_best_response_dynamics(initial, config);
  EXPECT_EQ(result.graph.budgets(), budgets);
}

TEST(Dynamics, AlreadyEquilibriumMakesNoMoves) {
  const Digraph g = star_digraph(6);
  DynamicsConfig config;
  config.version = CostVersion::Max;
  const DynamicsResult result = run_best_response_dynamics(g, config);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.moves, 0U);
  EXPECT_EQ(result.rounds, 1U);
  EXPECT_TRUE(result.graph == g);
}

TEST(Dynamics, ConnectsDisconnectedStartWhenBudgetsAllow) {
  // σ ≥ n−1 ⇒ equilibria are connected (Lemma 3.1); dynamics must leave any
  // disconnected start.
  Rng rng(403);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::uint32_t> budgets(8, 1);
    const Digraph initial = random_profile(budgets, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      DynamicsConfig config;
      config.version = version;
      config.max_rounds = 300;
      const DynamicsResult result = run_best_response_dynamics(initial, config);
      ASSERT_TRUE(result.converged);
      EXPECT_TRUE(is_connected(result.graph.underlying()));
    }
  }
}

TEST(Dynamics, RandomPermutationScheduleAlsoConverges) {
  Rng rng(404);
  const std::vector<std::uint32_t> budgets(9, 1);
  const Digraph initial = random_profile(budgets, rng);
  DynamicsConfig config;
  config.version = CostVersion::Sum;
  config.schedule = Schedule::RandomPermutation;
  config.seed = 99;
  const DynamicsResult result = run_best_response_dynamics(initial, config);
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(verify_equilibrium(result.graph, CostVersion::Sum).stable);
}

TEST(Dynamics, UniformRandomScheduleNeverClaimsConvergence) {
  const Digraph g = star_digraph(5);
  DynamicsConfig config;
  config.version = CostVersion::Sum;
  config.schedule = Schedule::UniformRandom;
  config.max_rounds = 5;
  const DynamicsResult result = run_best_response_dynamics(g, config);
  EXPECT_FALSE(result.converged);  // by design: random picks cannot certify
  EXPECT_EQ(result.moves, 0U);
}

TEST(Dynamics, DeterministicForFixedSeed) {
  Rng rng(405);
  const auto budgets = random_budgets(8, 9, rng);
  const Digraph initial = random_profile(budgets, rng);
  DynamicsConfig config;
  config.version = CostVersion::Max;
  config.schedule = Schedule::RandomPermutation;
  config.seed = 7;
  const DynamicsResult a = run_best_response_dynamics(initial, config);
  const DynamicsResult b = run_best_response_dynamics(initial, config);
  EXPECT_TRUE(a.graph == b.graph);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Dynamics, TreeInstanceConvergesToTreeEquilibrium) {
  Rng rng(406);
  for (int round = 0; round < 5; ++round) {
    const Digraph initial = random_tree_digraph(10, rng);
    DynamicsConfig config;
    config.version = CostVersion::Sum;
    config.max_rounds = 300;
    const DynamicsResult result = run_best_response_dynamics(initial, config);
    ASSERT_TRUE(result.converged);
    // σ = n−1 and connected ⇒ the equilibrium is a tree.
    EXPECT_EQ(result.graph.num_arcs(), 9U);
    EXPECT_TRUE(is_connected(result.graph.underlying()));
    EXPECT_EQ(result.graph.underlying().num_edges(), 9U);
  }
}

TEST(Dynamics, MovesCountedAndEvaluationsPositive) {
  const Digraph initial = path_digraph(8);
  DynamicsConfig config;
  config.version = CostVersion::Max;
  const DynamicsResult result = run_best_response_dynamics(initial, config);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.moves, 0U);
  EXPECT_GT(result.evaluations, 0U);
}

TEST(Dynamics, RespectsMaxRounds) {
  Rng rng(407);
  const auto budgets = random_budgets(12, 20, rng);
  const Digraph initial = random_profile(budgets, rng);
  DynamicsConfig config;
  config.version = CostVersion::Sum;
  config.max_rounds = 1;
  const DynamicsResult result = run_best_response_dynamics(initial, config);
  EXPECT_LE(result.rounds, 1U);
}

/// The production loop against the re-solve-every-visit reference: every
/// field but the work totals must agree, and the skips may only remove work.
void expect_matches_reference(const Digraph& initial, const DynamicsConfig& config,
                              std::uint64_t& skips) {
  const obs::CounterFrame frame;
  const DynamicsResult got = run_best_response_dynamics(initial, config);
  const std::uint64_t published = frame.value("dynamics.skips_unchanged");
  const DynamicsResult want = naive_best_response_dynamics(initial, config);
  EXPECT_EQ(got.graph, want.graph);
  EXPECT_EQ(got.moves, want.moves);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.cycle_detected, want.cycle_detected);
  EXPECT_EQ(got.all_moves_exact, want.all_moves_exact);
  EXPECT_EQ(got.hash_collisions, want.hash_collisions);
  EXPECT_EQ(got.trajectory, want.trajectory);
  EXPECT_LE(got.evaluations, want.evaluations);
  EXPECT_LE(got.bfs_avoided, want.bfs_avoided);
  EXPECT_EQ(published, got.skips_unchanged);
  skips += got.skips_unchanged;
}

TEST(Dynamics, SkippingUnchangedQueriesMatchesReSolvingEveryVisit) {
  Rng rng(408);
  std::uint64_t skips = 0;
  int runs = 0;
  for (const std::uint32_t n : {6U, 9U, 12U}) {
    for (const bool tree : {true, false}) {
      const Digraph initial =
          tree ? random_tree_digraph(n, rng) : random_profile(random_budgets(n, 2 * n, rng), rng);
      // Explicit caps that differ from the degrees: a grown budget, a shrunk
      // one, and a zero-degree player that still has a budget to spend.
      std::vector<std::uint32_t> caps = initial.budgets();
      caps[0] = std::min(caps[0] + 1, n - 1);
      caps[1] = std::max(caps[1], 2U) - 1;
      Digraph joined = initial;
      joined.set_strategy(2, {});
      caps[2] = 2;
      for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
        for (const Schedule schedule :
             {Schedule::RoundRobin, Schedule::RandomPermutation, Schedule::UniformRandom}) {
          for (const char* solver : {"swap", "exact_bb"}) {
            for (const bool explicit_caps : {false, true}) {
              DynamicsConfig config;
              config.version = version;
              config.schedule = schedule;
              config.solver = solver;
              config.max_rounds = 40;
              config.seed = n + runs;
              config.record_trajectory = true;
              if (explicit_caps) config.budgets = caps;
              SCOPED_TRACE(testing::Message()
                           << "n " << n << (tree ? " tree " : " random ") << to_string(version)
                           << " schedule " << static_cast<int>(schedule) << " " << solver
                           << (explicit_caps ? " explicit caps" : ""));
              expect_matches_reference(explicit_caps ? joined : initial, config, skips);
              ++runs;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 144);
  EXPECT_GT(skips, 0U);
}

TEST(Dynamics, HeuristicAnswersAndSwapScansAreNeverSkipped) {
  Rng rng(409);
  const Digraph initial = random_profile(random_budgets(10, 20, rng), rng);
  std::uint64_t skips = 0;
  DynamicsConfig heuristic;  // exact_limit 1: the swap ladder never certifies
  heuristic.exact_limit = 1;
  heuristic.max_rounds = 40;
  expect_matches_reference(initial, heuristic, skips);
  DynamicsConfig swaps;
  swaps.policy = MovePolicy::FirstImprovingSwap;
  swaps.max_rounds = 40;
  expect_matches_reference(initial, swaps, skips);
  EXPECT_EQ(skips, 0U);
}

}  // namespace
}  // namespace bbng
