// Unit tests for Nash / swap-equilibrium verification and the Lemma 2.2
// certificate counter.
#include "game/equilibrium.hpp"

#include <gtest/gtest.h>

#include "game/cost.hpp"
#include "graph/generators.hpp"

namespace bbng {
namespace {

TEST(VerifyEquilibrium, StarIsEquilibriumInBothVersions) {
  // Center owns all arcs: every vertex has local diameter ≤ 2 and no brace —
  // Lemma 2.2 certifies everyone; the exact verifier must agree.
  const Digraph g = star_digraph(7);
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    const auto report = verify_equilibrium(g, version);
    EXPECT_TRUE(report.stable) << to_string(version);
  }
  EXPECT_EQ(count_lemma22_certified(g), 7U);
}

TEST(VerifyEquilibrium, PathIsNotEquilibrium) {
  const Digraph g = path_digraph(6);
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    const auto report = verify_equilibrium(g, version);
    EXPECT_FALSE(report.stable);
    EXPECT_LT(report.new_cost, report.old_cost);
    // The deviation really is an improvement when applied.
    Digraph moved = g;
    moved.set_strategy(report.deviator, report.improving_strategy);
    EXPECT_EQ(vertex_cost(moved, report.deviator, version), report.new_cost);
    EXPECT_EQ(vertex_cost(g, report.deviator, version), report.old_cost);
  }
}

TEST(VerifyEquilibrium, TwoPlayerBraceIsEquilibrium) {
  Digraph g(2);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    EXPECT_TRUE(verify_equilibrium(g, version).stable);
  }
}

TEST(VerifySwapEquilibrium, ImpliedByNash) {
  const Digraph g = star_digraph(6);
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    EXPECT_TRUE(verify_swap_equilibrium(g, version).stable);
  }
}

TEST(VerifySwapEquilibrium, DetectsImprovingSwap) {
  const Digraph g = path_digraph(7);
  const auto report = verify_swap_equilibrium(g, CostVersion::Max);
  EXPECT_FALSE(report.stable);
  Digraph moved = g;
  moved.set_strategy(report.deviator, report.improving_strategy);
  EXPECT_LT(vertex_cost(moved, report.deviator, CostVersion::Max),
            vertex_cost(g, report.deviator, CostVersion::Max));
}

TEST(VerifySwapEquilibrium, NashImpliesSwapStableOnRandomEquilibria) {
  // Any exact equilibrium must pass the (weaker) swap check.
  Rng rng(301);
  int verified = 0;
  for (int round = 0; round < 30 && verified < 3; ++round) {
    const auto budgets = random_budgets(8, 9, rng);
    const Digraph g = random_profile(budgets, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      if (verify_equilibrium(g, version).stable) {
        EXPECT_TRUE(verify_swap_equilibrium(g, version).stable);
        ++verified;
      }
    }
  }
}

TEST(VerifySwapEquilibrium, WidthOneCountsTheInOrderScanUpToTheFirstDeviator) {
  // A null pool runs the sweep at width 1: players in order, none after the
  // first deviator, so strategies_checked is the probe count of exactly
  // those scans.
  Rng rng(97);
  ThreadPool serial(1);
  int unstable = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Digraph g = random_profile(random_budgets(9, 14, rng), rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      std::uint64_t probes = 0;
      Vertex deviator = g.num_vertices();
      for (Vertex u = 0; u < g.num_vertices() && deviator == g.num_vertices(); ++u) {
        if (g.out_degree(u) == 0) continue;
        const SolverResult scan = scan_first_improving_swap(g, u, version);
        probes += scan.evaluated;
        if (scan.improves()) deviator = u;
      }
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &serial}) {
        const EquilibriumReport report = verify_swap_equilibrium(g, version, pool);
        EXPECT_EQ(report.strategies_checked, probes) << "trial " << trial;
        EXPECT_EQ(report.stable, deviator == g.num_vertices());
        if (!report.stable) {
          EXPECT_EQ(report.deviator, deviator);
        }
      }
      unstable += deviator < g.num_vertices() ? 1 : 0;
    }
  }
  EXPECT_GT(unstable, 0);  // the early exit is exercised
}

TEST(Lemma22, CertifiedVerticesAreBestResponders) {
  // Build graphs, find Lemma 2.2-certified vertices, confirm with the exact
  // solver that they cannot improve — in both versions.
  Rng rng(302);
  for (int round = 0; round < 10; ++round) {
    const auto budgets = random_budgets(8, 12, rng);
    const Digraph g = random_profile(budgets, rng);
    const UGraph u = g.underlying();
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      const BestResponseSolver solver(version);
      for (Vertex v = 0; v < 8; ++v) {
        const std::uint32_t locdiam =
            static_cast<std::uint32_t>(vertex_cost(u, v, CostVersion::Max));
        const bool certified = locdiam == 1 || (locdiam == 2 && !g.in_brace(v));
        if (!certified) continue;
        EXPECT_FALSE(solver.exact(g, v).improves())
            << "round " << round << " v " << v << " " << to_string(version);
      }
    }
  }
}

TEST(Lemma22, BraceEndpointNotCertifiedAtDiameterTwo) {
  // Brace {0,1} plus leaves: local diameter of 0 is 2 but it sits in a
  // brace, so the lemma must not count it.
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(1, 2);
  g.add_arc(1, 3);
  const UGraph u = g.underlying();
  ASSERT_EQ(vertex_cost(u, 0, CostVersion::Max), 2U);
  const std::uint32_t certified = count_lemma22_certified(g);
  // Vertex 1 has local diameter 1 → certified; 0 is brace-blocked; 2 and 3
  // have local diameter 2 and no brace → certified.
  EXPECT_EQ(certified, 3U);
}

TEST(VerifyEquilibrium, ThrowsWhenExactInfeasible) {
  Rng rng(303);
  const std::vector<std::uint32_t> budgets(24, 10);
  const Digraph g = random_profile(budgets, rng);
  EXPECT_THROW((void)verify_equilibrium(g, CostVersion::Sum, /*exact_limit=*/10),
               std::invalid_argument);
}

}  // namespace
}  // namespace bbng
