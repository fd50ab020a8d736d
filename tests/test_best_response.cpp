// Unit tests for the best-response solver ladder (exact / greedy / swap) of
// best_response.hpp, including agreement of heuristics with exact search and
// a bit-for-bit differential of exact enumeration against the naive
// reference (tests/reference/naive_best_response.hpp).
#include "game/best_response.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "game/cost.hpp"
#include "game/strategy_eval.hpp"
#include "graph/generators.hpp"
#include "reference/naive_best_response.hpp"
#include "solver/registry.hpp"
#include "util/combinatorics.hpp"

namespace bbng {
namespace {

/// Reference exact best response: enumerate every candidate via the slow
/// rebuild path.
std::pair<std::vector<Vertex>, std::uint64_t> brute_force(const Digraph& g, Vertex u,
                                                          CostVersion version) {
  const std::uint32_t n = g.num_vertices();
  const std::uint32_t b = g.out_degree(u);
  std::vector<Vertex> best;
  std::uint64_t best_cost = ~0ULL;
  for (CombinationIterator it(n - 1, b); it.valid(); it.advance()) {
    std::vector<Vertex> heads;
    for (const auto idx : it.current()) heads.push_back(idx >= u ? idx + 1 : idx);
    Digraph copy = g;
    copy.set_strategy(u, heads);
    const std::uint64_t cost = vertex_cost(copy, u, version);
    if (cost < best_cost) {
      best_cost = cost;
      best = heads;
    }
  }
  return {best, best_cost};
}

TEST(ExactBestResponse, MatchesBruteForceOnRandomGames) {
  Rng rng(201);
  for (int round = 0; round < 10; ++round) {
    const auto budgets = random_budgets(9, 11, rng);
    const Digraph g = random_profile(budgets, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      const BestResponseSolver solver(version);
      for (Vertex u = 0; u < 9; ++u) {
        const auto [ref_strategy, ref_cost] = brute_force(g, u, version);
        const SolverResult br = solver.exact(g, u);
        EXPECT_EQ(br.cost, ref_cost) << "round " << round << " u " << u;
        EXPECT_TRUE(br.optimal);
        EXPECT_EQ(br.evaluated, binomial(8, g.out_degree(u)));
      }
    }
  }
}

TEST(ExactBestResponse, CostNeverAboveCurrent) {
  Rng rng(202);
  for (int round = 0; round < 10; ++round) {
    const auto budgets = random_budgets(10, 12, rng);
    const Digraph g = random_profile(budgets, rng);
    const BestResponseSolver solver(CostVersion::Sum);
    for (Vertex u = 0; u < 10; ++u) {
      const SolverResult br = solver.exact(g, u);
      EXPECT_LE(br.cost, br.current_cost);
    }
  }
}

TEST(ExactBestResponse, PathEndpointRelinksToCenter) {
  // Path 0→1→2→3→4: player 0 owns one arc. Linking to vertex 2 leaves
  // vertex 1 hanging one step away and 4 three steps away — local diameter
  // 3, which is optimal (linking to 3 also gives 3; ties break to 2).
  const Digraph g = path_digraph(5);
  const BestResponseSolver solver(CostVersion::Max);
  const SolverResult br = solver.exact(g, 0);
  ASSERT_EQ(br.strategy.size(), 1U);
  EXPECT_EQ(br.strategy[0], 2U);
  EXPECT_EQ(br.cost, 3U);
  EXPECT_TRUE(br.improves());  // current local diameter is 4
}

TEST(ExactBestResponse, ThrowsOverLimit) {
  Rng rng(203);
  const std::vector<std::uint32_t> budgets(20, 8);
  const Digraph g = random_profile(budgets, rng);
  const BestResponseSolver solver(CostVersion::Sum, /*exact_limit=*/100);
  EXPECT_FALSE(solver.exact_feasible(g, 0));
  EXPECT_THROW((void)solver.exact(g, 0), std::invalid_argument);
}

TEST(ExactBestResponse, ZeroBudgetPlayerTrivial) {
  Digraph g(4);
  g.add_arc(1, 0);
  g.add_arc(2, 1);
  g.add_arc(3, 1);
  const BestResponseSolver solver(CostVersion::Sum);
  const SolverResult br = solver.exact(g, 0);
  EXPECT_TRUE(br.strategy.empty());
  EXPECT_EQ(br.cost, br.current_cost);
  EXPECT_EQ(br.evaluated, 1U);
}

TEST(ExactBestResponse, DeterministicTieBreaking) {
  // A symmetric cycle: many strategies tie; the solver must break ties
  // lexicographically and reproducibly.
  const Digraph g = cycle_digraph(7);
  const BestResponseSolver solver(CostVersion::Sum);
  const SolverResult a = solver.exact(g, 3);
  const SolverResult b = solver.exact(g, 3);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.cost, b.cost);
}

TEST(ExactBestResponse, ParallelMatchesSerial) {
  Rng rng(204);
  const auto budgets = random_budgets(12, 18, rng);
  const Digraph g = random_profile(budgets, rng);
  ThreadPool serial(1), wide(4);
  const BestResponseSolver solver(CostVersion::Max);
  for (Vertex u = 0; u < 12; ++u) {
    const SolverResult a = solver.exact(g, u, &serial);
    const SolverResult b = solver.exact(g, u, &wide);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.strategy, b.strategy);  // deterministic merge
  }
}

/// Every field the naive reference defines must match bit for bit.
void expect_same_as_naive(const SolverResult& got, const Digraph& g, Vertex u,
                          CostVersion version, const std::string& where) {
  const SolverResult want = naive_exact_best_response(g, u, version);
  EXPECT_EQ(got.strategy, want.strategy) << where;
  EXPECT_EQ(got.cost, want.cost) << where;
  EXPECT_EQ(got.current_cost, want.current_cost) << where;
  EXPECT_EQ(got.evaluated, want.evaluated) << where;
  EXPECT_EQ(got.optimal, want.optimal) << where;
}

/// `g` with player u's strategy replaced by a random b-subset.
Digraph with_random_strategy(Digraph g, Vertex u, std::uint32_t b, Rng& rng) {
  std::vector<Vertex> others;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v != u) others.push_back(v);
  }
  rng.shuffle(others);
  others.resize(b);
  std::sort(others.begin(), others.end());
  g.set_strategy(u, others);
  return g;
}

TEST(ExactBestResponse, MatchesNaiveReferenceForEveryBudgetUpToTen) {
  // Every n ≤ 10 and every b < n, both versions. Sparse budgets (σ < n − 1)
  // leave profiles disconnected; the other players' random arcs give the
  // deviating player in-arcs.
  Rng rng(2101);
  ThreadPool serial(1);
  for (std::uint32_t n = 1; n <= 10; ++n) {
    for (std::uint32_t b = 0; b < n; ++b) {
      for (int round = 0; round < 3; ++round) {
        const std::uint64_t max_sigma = std::min<std::uint64_t>(2 * n, n * (n - 1));
        const std::uint64_t sigma = rng.next_below(max_sigma + 1);
        const Digraph base = random_profile(random_budgets(n, sigma, rng), rng);
        const auto u = static_cast<Vertex>(rng.next_below(n));
        const Digraph g = with_random_strategy(base, u, b, rng);
        for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
          const BestResponseSolver solver(version);
          const std::string where = "n " + std::to_string(n) + " b " + std::to_string(b) +
                                    " round " + std::to_string(round) + " " + to_string(version);
          expect_same_as_naive(solver.exact(g, u, &serial), g, u, version, where);
        }
      }
    }
  }
}

TEST(ExactBestResponse, TieBreakMatchesNaiveReferenceOnCycles) {
  // Directed cycles are vertex-transitive, so most head sets tie: the walk
  // must return the same lexicographically least optimum as the reference.
  Rng rng(2102);
  for (std::uint32_t n = 3; n <= 12; ++n) {
    for (std::uint32_t b = 1; b <= std::min(n - 1, 4U); ++b) {
      const Vertex u = n / 2;
      Digraph g = cycle_digraph(n);
      if (b > 1) g = with_random_strategy(g, u, b, rng);
      for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
        const BestResponseSolver solver(version);
        const std::string where =
            "cycle n " + std::to_string(n) + " b " + std::to_string(b) + " " + to_string(version);
        expect_same_as_naive(solver.exact(g, u), g, u, version, where);
      }
    }
  }
}

TEST(ExactBestResponse, DeltaBranchAboveTheTableLimitMatchesNaiveReference) {
  // n = 2100 exceeds the table limit, so the walk scores on the CSR delta
  // evaluator; b = 1 keeps the reference at 2099 BFS runs. The delta branch
  // walks serially on any pool, so a wide one reports the same counts.
  Rng rng(2103);
  const std::uint32_t n = 2100;
  ASSERT_GT(n, kTableEvaluatorLimit);
  const Digraph g = random_profile(std::vector<std::uint32_t>(n, 1), rng);
  ThreadPool serial(1), wide(4);
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    const BestResponseSolver solver(version);
    const SolverResult br = solver.exact(g, 7, &serial);
    expect_same_as_naive(br, g, 7, version, to_string(version));
    EXPECT_LE(br.bfs_avoided, br.evaluated);
    const SolverResult four = solver.exact(g, 7, &wide);
    EXPECT_EQ(four.strategy, br.strategy);
    EXPECT_EQ(four.cost, br.cost);
    EXPECT_EQ(four.bfs_avoided, br.bfs_avoided);
  }
}

TEST(ExactBestResponse, WidePoolMatchesSerialWalkAndNaiveReference) {
  // C(n−1, b) ≥ 4096 here, so a width-4 pool splits the walk by first head.
  Rng rng(2104);
  ThreadPool serial(1), wide(4);
  for (const auto& [n, b] : {std::pair{16U, 6U}, std::pair{18U, 5U}, std::pair{14U, 7U}}) {
    const Digraph base = random_profile(random_budgets(n, 2 * n, rng), rng);
    for (const Vertex u : {Vertex{0}, Vertex{n / 2}, Vertex{n - 1}}) {
      const Digraph g = with_random_strategy(base, u, b, rng);
      for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
        const BestResponseSolver solver(version);
        const SolverResult one = solver.exact(g, u, &serial);
        const SolverResult four = solver.exact(g, u, &wide);
        const std::string where = "n " + std::to_string(n) + " u " + std::to_string(u) + " " +
                                  to_string(version);
        EXPECT_EQ(one.strategy, four.strategy) << where;
        EXPECT_EQ(one.cost, four.cost) << where;
        EXPECT_EQ(one.current_cost, four.current_cost) << where;
        EXPECT_EQ(one.evaluated, four.evaluated) << where;
        EXPECT_EQ(one.optimal, four.optimal) << where;
        expect_same_as_naive(four, g, u, version, where);
      }
    }
  }
}

TEST(GreedyBestResponse, NeverBeatsExactButIsFeasible) {
  Rng rng(205);
  for (int round = 0; round < 8; ++round) {
    const auto budgets = random_budgets(10, 14, rng);
    const Digraph g = random_profile(budgets, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      const BestResponseSolver solver(version);
      for (Vertex u = 0; u < 10; ++u) {
        const SolverResult exact = solver.exact(g, u);
        const SolverResult greedy = solver.greedy(g, u);
        EXPECT_GE(greedy.cost, exact.cost);
        EXPECT_EQ(greedy.strategy.size(), g.out_degree(u));
      }
    }
  }
}

TEST(GreedyBestResponse, SingleArcIsExact) {
  // With budget 1 greedy enumerates all candidates, so it matches exact.
  Rng rng(206);
  const std::vector<std::uint32_t> budgets(11, 1);
  const Digraph g = random_profile(budgets, rng);
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    const BestResponseSolver solver(version);
    for (Vertex u = 0; u < 11; ++u) {
      EXPECT_EQ(solver.greedy(g, u).cost, solver.exact(g, u).cost);
    }
  }
}

TEST(SwapImprove, NeverWorseThanStart) {
  Rng rng(207);
  const auto budgets = random_budgets(10, 15, rng);
  const Digraph g = random_profile(budgets, rng);
  const BestResponseSolver solver(CostVersion::Sum);
  for (Vertex u = 0; u < 10; ++u) {
    const StrategyEvaluator eval(g, u, CostVersion::Sum);
    const SolverResult br = solver.swap_improve(g, u);
    EXPECT_LE(br.cost, eval.current_cost());
  }
}

TEST(SwapImprove, ReachesLocalOptimum) {
  Rng rng(208);
  const auto budgets = random_budgets(9, 10, rng);
  const Digraph g = random_profile(budgets, rng);
  const BestResponseSolver solver(CostVersion::Max);
  for (Vertex u = 0; u < 9; ++u) {
    const SolverResult br = solver.swap_improve(g, u);
    // Applying the returned strategy and swapping again gains nothing.
    Digraph moved = g;
    moved.set_strategy(u, br.strategy);
    const SolverResult again = solver.swap_improve(moved, u);
    EXPECT_EQ(again.cost, br.cost);
  }
}

TEST(Solve, UsesExactWhenFeasibleElseHeuristic) {
  // The registry's "swap" backend is the ladder: its node limit is the
  // exact-enumeration candidate cap.
  Rng rng(209);
  const auto budgets = random_budgets(10, 12, rng);
  const Digraph g = random_profile(budgets, rng);
  const BestResponseBackend& ladder = find_solver("swap");
  SolverBudget tight;
  tight.node_limit = 2;
  SolverBudget loose;
  loose.node_limit = 2'000'000;
  const BestResponseSolver loose_solver(CostVersion::Sum);
  for (Vertex u = 0; u < 10; ++u) {
    const SolverResult heur = ladder.solve(g, u, CostVersion::Sum, tight);
    const SolverResult exact = ladder.solve(g, u, CostVersion::Sum, loose);
    EXPECT_TRUE(exact.optimal || g.out_degree(u) == 0 || !loose_solver.exact_feasible(g, u));
    EXPECT_GE(heur.cost, exact.cost);
    EXPECT_LE(heur.cost, heur.current_cost + 0);  // heuristic may equal current
  }
}

TEST(CandidateCount, MatchesBinomial) {
  Digraph g(6);
  g.add_arc(0, 1);
  g.add_arc(0, 2);
  g.add_arc(3, 0);
  EXPECT_EQ(BestResponseSolver::candidate_count(g, 0), binomial(5, 2));
  EXPECT_EQ(BestResponseSolver::candidate_count(g, 3), 5U);
  EXPECT_EQ(BestResponseSolver::candidate_count(g, 5), 1U);
}

}  // namespace
}  // namespace bbng
