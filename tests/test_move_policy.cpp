// Unit tests comparing dynamics move policies (best response vs first
// improving swap) and the certificates each convergence yields.
#include "game/dynamics.hpp"

#include <gtest/gtest.h>

#include "game/equilibrium.hpp"
#include "graph/generators.hpp"

namespace bbng {
namespace {

TEST(MovePolicy, SwapDynamicsConvergeToSwapEquilibrium) {
  Rng rng(91);
  for (int round = 0; round < 5; ++round) {
    const std::vector<std::uint32_t> budgets(10, 1);
    const Digraph initial = random_profile(budgets, rng);
    DynamicsConfig config;
    config.version = CostVersion::Sum;
    config.policy = MovePolicy::FirstImprovingSwap;
    config.max_rounds = 500;
    const DynamicsResult result = run_best_response_dynamics(initial, config);
    ASSERT_TRUE(result.converged) << "round " << round;
    EXPECT_FALSE(result.all_moves_exact);  // swap moves never certify Nash
    EXPECT_TRUE(verify_swap_equilibrium(result.graph, CostVersion::Sum).stable);
  }
}

TEST(MovePolicy, SwapConvergencePointsMayNotBeNash) {
  // With budget 1, a single-head swap IS the whole strategy space, so swap
  // dynamics reach full Nash equilibria; confirm the stronger property for
  // that special case.
  Rng rng(92);
  const std::vector<std::uint32_t> budgets(9, 1);
  const Digraph initial = random_profile(budgets, rng);
  DynamicsConfig config;
  config.version = CostVersion::Max;
  config.policy = MovePolicy::FirstImprovingSwap;
  config.max_rounds = 500;
  const DynamicsResult result = run_best_response_dynamics(initial, config);
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(verify_equilibrium(result.graph, CostVersion::Max).stable);
}

TEST(MovePolicy, SwapMovesPreserveBudgets) {
  Rng rng(93);
  const auto budgets = random_budgets(8, 12, rng);
  const Digraph initial = random_profile(budgets, rng);
  DynamicsConfig config;
  config.policy = MovePolicy::FirstImprovingSwap;
  config.max_rounds = 100;
  const DynamicsResult result = run_best_response_dynamics(initial, config);
  EXPECT_EQ(result.graph.budgets(), budgets);
}

TEST(MovePolicy, SwapCheaperThanBestResponsePerVisit) {
  // The swap policy scores strictly fewer candidates than exhaustive best
  // response on budget-2 players.
  Rng rng(94);
  const std::vector<std::uint32_t> budgets(12, 2);
  const Digraph initial = random_profile(budgets, rng);
  DynamicsConfig swap_config;
  swap_config.policy = MovePolicy::FirstImprovingSwap;
  swap_config.max_rounds = 300;
  DynamicsConfig br_config;
  br_config.max_rounds = 300;
  const DynamicsResult swap_run = run_best_response_dynamics(initial, swap_config);
  const DynamicsResult br_run = run_best_response_dynamics(initial, br_config);
  if (swap_run.converged && br_run.converged) {
    EXPECT_LT(swap_run.evaluations, br_run.evaluations);
  }
}

TEST(MovePolicy, SwapEvaluationsCountEveryProbeOfEveryScan) {
  // Under FirstImprovingSwap, `evaluations` adds each scan's probe count,
  // whether or not the scan finds a move. Replay the round-robin rounds
  // scan by scan and compare.
  Rng rng(95);
  int replayed = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Digraph initial = random_profile(random_budgets(10, 16, rng), rng);
    for (const std::uint64_t rounds : {1U, 3U}) {
      DynamicsConfig config;
      config.version = trial % 2 == 0 ? CostVersion::Sum : CostVersion::Max;
      config.policy = MovePolicy::FirstImprovingSwap;
      config.max_rounds = rounds;
      const DynamicsResult result = run_best_response_dynamics(initial, config);
      if (result.cycle_detected) continue;  // stopped mid-round; not replayed

      Digraph g = initial;
      std::uint64_t probes = 0;
      std::uint64_t moves = 0;
      for (std::uint64_t round = 0; round < result.rounds; ++round) {
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          if (g.out_degree(u) == 0) continue;
          const SolverResult scan = scan_first_improving_swap(g, u, config.version);
          probes += scan.evaluated;
          if (!scan.improves()) continue;
          g.set_strategy(u, scan.strategy);
          ++moves;
        }
      }
      SCOPED_TRACE(testing::Message() << "trial " << trial << " rounds " << rounds);
      EXPECT_EQ(result.moves, moves);
      EXPECT_EQ(result.evaluations, probes);
      EXPECT_GT(result.evaluations, result.moves);
      EXPECT_EQ(result.graph, g);
      ++replayed;
    }
  }
  EXPECT_GE(replayed, 10);
}

}  // namespace
}  // namespace bbng
