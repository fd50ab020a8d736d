// Registry contract tests: lookup by name, the error message for unknown
// names (spec validation surfaces it verbatim), bit-compatibility of the
// "swap" backend with its parts (the exact walk when feasible, else
// greedy_swap_descent clamped to staying put), and what the one solve()
// entry publishes: one solve, one histogram sample and one span per query,
// capped or not, and cache_served instead of solves for a cache hit.
#include "solver/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "game/best_response.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/timing.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace bbng {
namespace {

TEST(SolverRegistry, ListsEveryBackendWithDescriptions) {
  const auto solvers = list_solvers();
  ASSERT_EQ(solvers.size(), 3u);
  EXPECT_EQ(solvers[0].first, "swap");
  EXPECT_EQ(solvers[1].first, "exact_bb");
  EXPECT_EQ(solvers[2].first, "portfolio");
  for (const auto& [name, description] : solvers) {
    EXPECT_FALSE(description.empty()) << name;
    EXPECT_EQ(find_solver(name).name(), name);
    EXPECT_TRUE(solver_exists(name));
  }
  EXPECT_EQ(solver_names().size(), 3u);
}

TEST(SolverRegistry, UnknownNameThrowsNamingTheOffenderAndTheOptions) {
  EXPECT_FALSE(solver_exists("simplex"));
  try {
    (void)find_solver("simplex");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("simplex"), std::string::npos) << what;
    EXPECT_NE(what.find("swap"), std::string::npos) << what;
    EXPECT_NE(what.find("exact_bb"), std::string::npos) << what;
    EXPECT_NE(what.find("portfolio"), std::string::npos) << what;
  }
}

/// The "swap" backend rebuilt from its parts: BestResponseSolver::exact when
/// the candidate count fits `limit`, else greedy_swap_descent keeping the
/// cheaper of its two incumbents, clamped so it never recommends a
/// deviation worse than staying put.
SolverResult ladder_from_parts(const Digraph& g, Vertex u, CostVersion version,
                               std::uint64_t limit) {
  const BestResponseSolver ladder(version, limit);
  if (ladder.exact_feasible(g, u)) return ladder.exact(g, u);
  const GreedySwapDescent descent = greedy_swap_descent(g, u, version, /*incremental=*/true);
  SolverResult result = descent.refined;
  result.evaluated = descent.coarse.evaluated + descent.refined.evaluated;
  if (descent.coarse.cost < result.cost) {
    result.strategy = descent.coarse.strategy;
    result.cost = descent.coarse.cost;
  }
  if (result.cost >= result.current_cost) {
    result.strategy.assign(g.out_neighbors(u).begin(), g.out_neighbors(u).end());
    std::sort(result.strategy.begin(), result.strategy.end());
    result.cost = result.current_cost;
  }
  return result;
}

TEST(SolverRegistry, SwapBackendIsBitCompatibleWithTheLadder) {
  // The "swap" backend is the one ladder; in both the exact and the
  // heuristic regime it must return the strategies and counters its parts
  // produce.
  const BestResponseBackend& swap = find_solver("swap");
  Rng rng(606);
  for (int round = 0; round < 40; ++round) {
    const std::uint32_t n = 5 + static_cast<std::uint32_t>(round % 8);
    const std::uint64_t sigma = n / 2 + rng.next_below(3 * n / 2 + 1);
    const Digraph g = random_profile(random_budgets(n, sigma, rng), rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      // exact_limit 1 forces the heuristic regime; the default allows exact.
      for (const std::uint64_t limit : {std::uint64_t{1}, std::uint64_t{2'000'000}}) {
        for (Vertex u = 0; u < n; ++u) {
          if (g.out_degree(u) == 0) continue;
          const SolverResult via_parts = ladder_from_parts(g, u, version, limit);
          SolverBudget budget;
          budget.node_limit = limit;
          const SolverResult via_registry = swap.solve(g, u, version, budget);
          ASSERT_EQ(via_parts.cost, via_registry.cost);
          ASSERT_EQ(via_parts.strategy, via_registry.strategy);
          ASSERT_EQ(via_parts.current_cost, via_registry.current_cost);
          ASSERT_EQ(via_parts.evaluated, via_registry.evaluated);
          ASSERT_EQ(via_parts.optimal, via_registry.optimal);
        }
      }
    }
  }
}

TEST(SolverRegistry, SwapNodeLimitZeroDisablesTheExactPath) {
  // exact_limit = 0 has always meant "heuristic moves only"; the registry
  // wrapper must not reinterpret it as "use a default enumeration cap".
  Rng rng(12);
  const Digraph g = random_profile(random_budgets(8, 10, rng), rng);
  const BestResponseBackend& swap = find_solver("swap");
  SolverBudget budget;
  budget.node_limit = 0;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (g.out_degree(u) == 0) continue;
    const SolverResult result = swap.solve(g, u, CostVersion::Sum, budget);
    EXPECT_FALSE(result.optimal);  // enumeration never ran
    const SolverResult reference = ladder_from_parts(g, u, CostVersion::Sum, /*limit=*/0);
    EXPECT_EQ(result.cost, reference.cost);
    EXPECT_EQ(result.strategy, reference.strategy);
  }
}

TEST(SolverRegistry, EveryBackendHonoursTheCommonContract) {
  // cost ≤ current_cost, lower_bound ≤ cost, and a sorted strategy of
  // exactly budget size — for every registered backend on one instance.
  Rng rng(41);
  const std::uint64_t sigma = 12;
  const Digraph g = random_profile(random_budgets(9, sigma, rng), rng);
  for (const std::string& name : solver_names()) {
    const BestResponseBackend& backend = find_solver(name);
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      const SolverResult result = backend.solve(g, u, CostVersion::Sum);
      EXPECT_EQ(result.solver, name);
      EXPECT_LE(result.cost, result.current_cost) << name;
      EXPECT_LE(result.lower_bound, result.cost) << name;
      EXPECT_EQ(result.strategy.size(), g.out_degree(u)) << name;
      EXPECT_TRUE(std::is_sorted(result.strategy.begin(), result.strategy.end())) << name;
    }
  }
}

std::uint64_t histogram_count(const std::string& name) {
  for (const obs::HistogramSnapshot& hist : obs::histogram_snapshot()) {
    if (hist.name == name) return hist.count;
  }
  return 0;
}

std::size_t span_count(const std::string& trace_json, const std::string& name) {
  const JsonValue root = parse_json(trace_json);
  std::size_t count = 0;
  for (const JsonValue& event : root.at("traceEvents").items()) {
    if (event.at("name").as_string() == name) ++count;
  }
  return count;
}

TEST(SolverRegistry, CappedHeuristicQueryPublishesOneSolve) {
  if (!obs::kCompiledIn || !obs::enabled()) GTEST_SKIP() << "registry inactive";
  // Player 0 holds one head under a cap of 3: the swap ladder and the
  // portfolio search a degree-normalised copy, and the query still counts
  // once — one solve, one histogram sample, one span.
  Rng rng(17);
  const Digraph g = random_profile(random_budgets(10, 12, rng), rng);
  Digraph capped = g;
  const std::vector<Vertex> one_head = {g.out_degree(0) > 0 ? g.out_neighbors(0)[0] : 1};
  capped.set_strategy(0, one_head);
  SolverBudget budget;
  budget.budget_cap = 3;
  budget.node_limit = 2'000'000;
  for (const std::string name : {"swap", "portfolio"}) {
    const BestResponseBackend& backend = find_solver(name);
    const std::uint64_t samples = histogram_count("solver.solve." + name);
    const obs::CounterFrame frame;
    obs::trace::begin();
    const SolverResult result = backend.solve(capped, 0, CostVersion::Sum, budget);
    const std::string trace = obs::trace::end_json();
    EXPECT_EQ(result.strategy.size(), 3U) << name;
    EXPECT_EQ(frame.value("solver." + name + ".solves"), 1U) << name;
    EXPECT_EQ(frame.value("solver." + name + ".evaluated"), result.evaluated) << name;
    EXPECT_EQ(histogram_count("solver.solve." + name), samples + 1) << name;
    EXPECT_EQ(span_count(trace, "solve:" + name), 1U) << name;
  }
}

TEST(SolverRegistry, ExactCacheHitPublishesCacheServedNotSolves) {
  if (!obs::kCompiledIn || !obs::enabled()) GTEST_SKIP() << "registry inactive";
  Rng rng(23);
  const Digraph g = random_profile(random_budgets(9, 12, rng), rng);
  const BestResponseBackend& exact = find_solver("exact_bb");
  TranspositionCache cache;
  const SolverResult searched = exact.solve(g, 0, CostVersion::Sum, {}, nullptr, &cache);
  ASSERT_TRUE(searched.optimal);
  const obs::CounterFrame frame;
  const SolverResult served = exact.solve(g, 0, CostVersion::Sum, {}, nullptr, &cache);
  EXPECT_EQ(served.cost, searched.cost);
  EXPECT_EQ(served.evaluated, 0U) << "a hit replays no search work";
  EXPECT_EQ(frame.value("solver.exact_bb.cache_served"), 1U);
  EXPECT_EQ(frame.value("solver.exact_bb.solves"), 0U);
  EXPECT_EQ(frame.value("solver.exact_bb.evaluated"), 0U);
  EXPECT_EQ(frame.value("cache.transposition.hits"), 1U);
}

}  // namespace
}  // namespace bbng
