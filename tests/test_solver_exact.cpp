// Differential tests for the certified branch-and-bound backend: on
// exhaustively enumerable instances (n ≤ 8, b_i ≤ 2) ExactBranchAndBound
// must match the naive brute-force reference
// (tests/reference/naive_best_response.hpp) cost for cost with the
// optimality certificate set — on both cost versions and
// disconnected instances. Anytime behaviour (budget truncation), the
// transposition cache, the lower-bound invariants, a search-tree golden and
// both sides of the distance-table size limit are pinned alongside.
#include "solver/exact_bb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "game/best_response.hpp"
#include "game/cost.hpp"
#include "game/strategy_eval.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "reference/naive_best_response.hpp"
#include "reference/naive_cache_key.hpp"
#include "util/rng.hpp"

namespace bbng {
namespace {

/// Random instance with every budget clamped to ≤ 2 so full enumeration is
/// the cheap ground truth (C(n−1, b) ≤ C(7, 2) = 21 per player).
Digraph small_instance(std::uint32_t n, Rng& rng) {
  const std::uint64_t sigma = n / 2 + rng.next_below(n);
  std::vector<std::uint32_t> budgets = random_budgets(n, sigma, rng);
  for (auto& b : budgets) b = std::min(b, 2u);
  return random_profile(budgets, rng);
}

TEST(SolverExact, MatchesBruteForceOnExhaustiveCorpus) {
  const ExactBranchAndBound bb;
  Rng rng(4242);
  for (int round = 0; round < 200; ++round) {
    const std::uint32_t n = 4 + static_cast<std::uint32_t>(round % 5);  // 4..8
    const Digraph g = small_instance(n, rng);
    const BudgetGame game(g.budgets());
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      for (Vertex u = 0; u < n; ++u) {
        const SolverResult reference = naive_exact_best_response(g, u, version);
        const SolverResult result = bb.solve(g, u, version);
        ASSERT_EQ(result.cost, reference.cost)
            << "round " << round << " u " << u << " " << to_string(version);
        ASSERT_TRUE(result.optimal);
        ASSERT_EQ(result.lower_bound, result.cost);
        ASSERT_EQ(result.current_cost, reference.current_cost);
        ASSERT_EQ(result.solver, "exact_bb");
        // The returned strategy must actually realise the returned cost.
        ASSERT_EQ(result.strategy.size(), g.out_degree(u));
        const StrategyEvaluator eval(g, u, version);
        StrategyEvaluator::Scratch scratch(n);
        ASSERT_EQ(eval.evaluate(result.strategy, scratch), result.cost);
      }
    }
  }
}

TEST(SolverExact, HandlesDisconnectedInstances) {
  // σ < n−1 forces disconnection; Cinf charges must round-trip through the
  // bounds without tripping an inadmissible prune.
  const ExactBranchAndBound bb;
  Rng rng(777);
  for (int round = 0; round < 50; ++round) {
    const std::uint32_t n = 5 + static_cast<std::uint32_t>(round % 3);
    std::vector<std::uint32_t> budgets = random_budgets(n, n / 2, rng);
    for (auto& b : budgets) b = std::min(b, 2u);
    const Digraph g = random_profile(budgets, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      for (Vertex u = 0; u < n; ++u) {
        const SolverResult reference = naive_exact_best_response(g, u, version);
        const SolverResult result = bb.solve(g, u, version);
        ASSERT_EQ(result.cost, reference.cost)
            << "round " << round << " u " << u << " " << to_string(version);
        ASSERT_TRUE(result.optimal);
      }
    }
  }
}

TEST(SolverExact, ZeroBudgetPlayerIsTriviallyCertified) {
  Rng rng(3);
  std::vector<std::uint32_t> budgets{0, 2, 1, 1, 0};
  const Digraph g = random_profile(budgets, rng);
  const ExactBranchAndBound bb;
  const SolverResult result = bb.solve(g, 0, CostVersion::Sum);
  EXPECT_TRUE(result.optimal);
  EXPECT_TRUE(result.strategy.empty());
  EXPECT_EQ(result.cost, result.current_cost);
  EXPECT_FALSE(result.improves());
}

TEST(SolverExact, NodeLimitTruncationIsAnytime) {
  // Under a one-node budget the search may still close honestly (root-level
  // pruning can *prove* the seeded incumbent optimal; b ≤ 1 players close at
  // the root by construction) — but whenever it claims a certificate the
  // cost must be the true optimum, and whenever it truncates the optimum
  // must lie inside [lower_bound, cost]. Some player must actually truncate,
  // or the budget knob is dead.
  const ExactBranchAndBound bb;
  Rng rng(99);
  int truncations = 0;
  for (int round = 0; round < 20; ++round) {
    const Digraph g = small_instance(8, rng);
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      if (g.out_degree(u) == 0) continue;
      SolverBudget budget;
      budget.node_limit = 1;
      const SolverResult result = bb.solve(g, u, CostVersion::Sum, budget);
      EXPECT_LE(result.cost, result.current_cost);
      EXPECT_LE(result.lower_bound, result.cost);
      const SolverResult reference = naive_exact_best_response(g, u, CostVersion::Sum);
      if (result.optimal) {
        EXPECT_EQ(result.cost, reference.cost);
      } else {
        ++truncations;
        EXPECT_LE(result.lower_bound, reference.cost);
        EXPECT_GE(result.cost, reference.cost);
      }
    }
  }
  EXPECT_GT(truncations, 0);
}

TEST(SolverExact, TranspositionCacheHitsAcrossOwnStrategyChanges) {
  // The canonical key excludes the player's own out-arcs, so re-solving
  // after the player itself moved is a hit; the answer must stay certified
  // and the refreshed current_cost must track the new strategy.
  Rng rng(123);
  Digraph g = small_instance(7, rng);
  Vertex mover = 0;
  while (g.out_degree(mover) == 0) ++mover;
  const ExactBranchAndBound bb;
  TranspositionCache cache;

  const SolverResult first = bb.solve(g, mover, CostVersion::Sum, {}, nullptr, &cache);
  ASSERT_TRUE(first.optimal);
  EXPECT_EQ(cache.stats().hits, 0u);

  // Move the player somewhere else, then ask again.
  std::vector<Vertex> other;
  for (Vertex t = 0; t < g.num_vertices() && other.size() < g.out_degree(mover); ++t) {
    if (t != mover && !std::count(first.strategy.begin(), first.strategy.end(), t)) {
      other.push_back(t);
    }
  }
  ASSERT_EQ(other.size(), g.out_degree(mover));
  g.set_strategy(mover, other);

  const SolverResult second = bb.solve(g, mover, CostVersion::Sum, {}, nullptr, &cache);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_TRUE(second.optimal);
  EXPECT_EQ(second.cost, first.cost);  // the optimum ignores the mover's own arcs
  const StrategyEvaluator eval(g, mover, CostVersion::Sum);
  EXPECT_EQ(second.current_cost, eval.current_cost());
  // A hit performs no search work: replayed counters must not be reported.
  EXPECT_EQ(second.nodes_explored, 0u);
  EXPECT_EQ(second.evaluated, 0u);
  EXPECT_EQ(second.bfs_avoided, 0u);

  // A different player's query must NOT hit the cached entry.
  Vertex other_player = mover + 1;
  while (other_player < g.num_vertices() && g.out_degree(other_player) == 0) ++other_player;
  if (other_player < g.num_vertices()) {
    const SolverResult third = bb.solve(g, other_player, CostVersion::Sum, {}, nullptr, &cache);
    EXPECT_TRUE(third.optimal);
    EXPECT_EQ(cache.stats().hits, 1u);
  }
}

TEST(SolverExact, PrunesAgainstFullEnumeration) {
  // Not a correctness property, but the point of the subsystem: on a larger
  // budget the search must close while scoring far fewer candidates than
  // enumeration would.
  Rng rng(5150);
  std::vector<std::uint32_t> budgets(14, 1);
  budgets[0] = 5;  // C(13, 5) = 1287 candidate strategies
  const Digraph g = random_profile(budgets, rng);
  const ExactBranchAndBound bb;
  const SolverResult result = bb.solve(g, 0, CostVersion::Sum);
  ASSERT_TRUE(result.optimal);
  const SolverResult reference = naive_exact_best_response(g, 0, CostVersion::Sum);
  EXPECT_EQ(result.cost, reference.cost);
  EXPECT_LT(result.evaluated, reference.evaluated);
  EXPECT_GT(result.nodes_pruned, 0u);
}


/// The cheapest exactly-`cap`-head strategy of `u` by full enumeration of
/// the C(n−1, cap) head sets, each scored from scratch.
std::uint64_t enumerated_optimum(const Digraph& g, Vertex u, CostVersion version,
                                 std::uint32_t cap) {
  const std::uint32_t n = g.num_vertices();
  const StrategyEvaluator eval(g, u, version);
  StrategyEvaluator::Scratch scratch(n);
  std::vector<Vertex> others;
  for (Vertex t = 0; t < n; ++t) {
    if (t != u) others.push_back(t);
  }
  std::vector<bool> chosen(others.size(), false);
  std::fill(chosen.begin(), chosen.begin() + cap, true);
  std::uint64_t best = ~0ULL;
  std::vector<Vertex> heads;
  do {
    heads.clear();
    for (std::size_t i = 0; i < others.size(); ++i) {
      if (chosen[i]) heads.push_back(others[i]);
    }
    best = std::min(best, eval.evaluate(heads, scratch));
  } while (std::prev_permutation(chosen.begin(), chosen.end()));
  return best;
}

TEST(SolverExact, DeepCapsMatchEnumeration) {
  // The brute-force corpora stop at b ≤ 2. Caps of n − 2 and n − 1 let the
  // DFS run to its deepest levels (the incumbent seed only carries
  // out-degree heads), through every level of the per-depth scratch and the
  // suffix spans handed to the children.
  const ExactBranchAndBound bb;
  Rng rng(6021);
  for (std::uint32_t n = 6; n <= 10; ++n) {
    for (const bool connected : {true, false}) {
      // Connected: the directed cycle plus random chords. Disconnected: a
      // random profile with σ = n/2 < n − 1.
      Digraph g(n);
      if (connected) {
        g = cycle_digraph(n);
        for (std::uint32_t k = 0; k < n / 3; ++k) {
          const auto a = static_cast<Vertex>(rng.next_below(n));
          const auto b = static_cast<Vertex>(rng.next_below(n));
          if (a != b && !g.has_arc(a, b)) g.add_arc(a, b);
        }
      } else {
        g = random_profile(random_budgets(n, n / 2, rng), rng);
      }
      for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
        for (const std::uint32_t cap : {n - 2, n - 1}) {
          for (Vertex u = 0; u < n; ++u) {
            SolverBudget budget;
            budget.budget_cap = cap;
            const SolverResult result = bb.solve(g, u, version, budget);
            const std::string where = "n " + std::to_string(n) + " u " + std::to_string(u) +
                                      " cap " + std::to_string(cap) + " " +
                                      to_string(version) +
                                      (connected ? " connected" : " disconnected");
            ASSERT_TRUE(result.optimal) << where;
            ASSERT_EQ(result.cost, enumerated_optimum(g, u, version, cap)) << where;
            ASSERT_EQ(result.lower_bound, result.cost) << where;
            ASSERT_EQ(result.strategy.size(), cap) << where;
            const StrategyEvaluator eval(g, u, version);
            StrategyEvaluator::Scratch scratch(n);
            ASSERT_EQ(eval.evaluate(result.strategy, scratch), result.cost) << where;
          }
        }
      }
    }
  }
}

/// One line per solve of the search-tree golden corpus: the query, then every
/// field a search-order change would move.
std::string describe_solve(std::uint32_t n, CostVersion version, Vertex u, std::uint32_t cap,
                           std::uint64_t node_limit, const SolverResult& r) {
  std::string line = "n=" + std::to_string(n) + " " + to_string(version);
  line += " u=" + std::to_string(u);
  line += " cap=" + std::to_string(cap);
  line += " limit=" + std::to_string(node_limit);
  line += " | strategy=";
  for (std::size_t i = 0; i < r.strategy.size(); ++i) {
    if (i > 0) line += ",";
    line += std::to_string(r.strategy[i]);
  }
  line += " cost=" + std::to_string(r.cost);
  line += " current=" + std::to_string(r.current_cost);
  line += " optimal=" + std::to_string(r.optimal ? 1 : 0);
  line += " lb=" + std::to_string(r.lower_bound);
  line += " nodes=" + std::to_string(r.nodes_explored);
  line += " pruned=" + std::to_string(r.nodes_pruned);
  line += " evaluated=" + std::to_string(r.evaluated);
  return line;
}

/// Three directed 10-cycles with a few chords each, joined only through
/// player 0, which points into all three (1, 12, 25). Its stripped base has
/// three components (three representatives), and only the first is seeded by
/// an in-neighbour, so a MAX probe that leaves the other two unseeded scores
/// by κ while one that seeds both scores by the local diameter.
Digraph three_component_instance() {
  Rng rng(9500);
  Digraph g(30);
  for (Vertex c = 0; c < 30; c += 10) {
    for (Vertex i = 0; i < 10; ++i) g.add_arc(c + i, c + (i + 1) % 10);
    for (int k = 0; k < 3; ++k) {
      const Vertex a = c + static_cast<Vertex>(rng.next_below(10));
      const Vertex b = c + static_cast<Vertex>(rng.next_below(10));
      if (a != b && !g.has_arc(a, b) && !g.has_arc(b, a)) g.add_arc(a, b);
    }
  }
  g.add_arc(0, 12);
  g.add_arc(0, 25);
  return g;
}

/// The golden corpus: random-budget instances (σ = 2n) at n ∈ {16, 24, 32,
/// 48, 64, 96}, SUM and MAX, three players each, solved under four budgets —
/// the default cap with a roomy and with a tiny node limit, a cap one above
/// the out-degree, and a cap one below it (two above for single-head
/// players) — then one MAX solve of player 0 on three_component_instance()
/// with a cap one above its out-degree.
std::vector<std::string> search_tree_corpus() {
  const ExactBranchAndBound bb;
  std::vector<std::string> lines;
  for (const std::uint32_t n : {16u, 24u, 32u, 48u, 64u, 96u}) {
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      Rng rng(9000 + 2 * n + (version == CostVersion::Max ? 1 : 0));
      const Digraph g = random_profile(random_budgets(n, 2 * n, rng), rng);
      for (std::uint32_t k = 0; k < 3; ++k) {
        Vertex u = k * n / 3;
        while (g.out_degree(u) == 0) u = (u + 1) % n;
        const std::uint32_t deg = g.out_degree(u);
        const std::uint32_t shrunk = deg > 1 ? deg - 1 : deg + 2;
        const std::pair<std::uint32_t, std::uint64_t> budgets[] = {
            {0, 4000}, {0, 40}, {deg + 1, 1500}, {shrunk, 1500}};
        for (const auto& [cap, limit] : budgets) {
          SolverBudget budget;
          budget.budget_cap = cap;
          budget.node_limit = limit;
          const SolverResult result = bb.solve(g, u, version, budget);
          lines.push_back(describe_solve(n, version, u, cap, limit, result));
        }
      }
    }
  }
  const Digraph g = three_component_instance();
  SolverBudget budget;
  budget.budget_cap = g.out_degree(0) + 1;
  budget.node_limit = 4000;
  const SolverResult result = bb.solve(g, 0, CostVersion::Max, budget);
  lines.push_back(
      describe_solve(30, CostVersion::Max, 0, budget.budget_cap, budget.node_limit, result));
  return lines;
}

/// Search-tree golden: every field of every corpus solve. Costs are exact and
/// the DFS order depends only on costs, so any exact scoring path must
/// reproduce it exactly — including the truncated (optimal=0) solves, whose
/// incumbents depend on the search order.
const char* const kSearchTreeGolden[] = {
    "n=16 SUM u=1 cap=0 limit=4000 | strategy=0,3,12,13 cost=23 current=23 optimal=1 lb=23 nodes=1 pruned=4 evaluated=111",
    "n=16 SUM u=1 cap=0 limit=40 | strategy=0,3,12,13 cost=23 current=23 optimal=1 lb=23 nodes=1 pruned=4 evaluated=111",
    "n=16 SUM u=1 cap=5 limit=1500 | strategy=0,3,4,5,13 cost=22 current=23 optimal=1 lb=22 nodes=8 pruned=41 evaluated=171",
    "n=16 SUM u=1 cap=3 limit=1500 | strategy=0,3,13 cost=25 current=23 optimal=1 lb=25 nodes=3 pruned=24 evaluated=33",
    "n=16 SUM u=5 cap=0 limit=4000 | strategy=1,2 cost=31 current=34 optimal=1 lb=31 nodes=15 pruned=15 evaluated=176",
    "n=16 SUM u=5 cap=0 limit=40 | strategy=1,2 cost=31 current=34 optimal=1 lb=31 nodes=15 pruned=15 evaluated=176",
    "n=16 SUM u=5 cap=3 limit=1500 | strategy=1,2,7 cost=27 current=34 optimal=1 lb=27 nodes=18 pruned=36 evaluated=210",
    "n=16 SUM u=5 cap=1 limit=1500 | strategy=1 cost=36 current=34 optimal=1 lb=36 nodes=1 pruned=0 evaluated=15",
    "n=16 SUM u=10 cap=0 limit=4000 | strategy=1,2 cost=28 current=31 optimal=1 lb=28 nodes=4 pruned=15 evaluated=106",
    "n=16 SUM u=10 cap=0 limit=40 | strategy=1,2 cost=28 current=31 optimal=1 lb=28 nodes=4 pruned=15 evaluated=106",
    "n=16 SUM u=10 cap=3 limit=1500 | strategy=1,2,5 cost=26 current=31 optimal=1 lb=26 nodes=9 pruned=26 evaluated=152",
    "n=16 SUM u=10 cap=1 limit=1500 | strategy=1 cost=32 current=31 optimal=1 lb=32 nodes=1 pruned=1 evaluated=14",
    "n=16 MAX u=1 cap=0 limit=4000 | strategy=3,4,6,7 cost=2 current=3 optimal=1 lb=2 nodes=78 pruned=62 evaluated=222",
    "n=16 MAX u=1 cap=0 limit=40 | strategy=3,8,11,13 cost=3 current=3 optimal=0 lb=1 nodes=40 pruned=29 evaluated=200",
    "n=16 MAX u=1 cap=5 limit=1500 | strategy=0,2,6,9,10 cost=2 current=3 optimal=1 lb=2 nodes=63 pruned=49 evaluated=190",
    "n=16 MAX u=1 cap=3 limit=1500 | strategy=0,2,3 cost=3 current=3 optimal=1 lb=3 nodes=54 pruned=45 evaluated=103",
    "n=16 MAX u=5 cap=0 limit=4000 | strategy=9 cost=3 current=3 optimal=1 lb=3 nodes=1 pruned=3 evaluated=30",
    "n=16 MAX u=5 cap=0 limit=40 | strategy=9 cost=3 current=3 optimal=1 lb=3 nodes=1 pruned=3 evaluated=30",
    "n=16 MAX u=5 cap=2 limit=1500 | strategy=0,9 cost=3 current=3 optimal=1 lb=3 nodes=14 pruned=10 evaluated=82",
    "n=16 MAX u=5 cap=3 limit=1500 | strategy=0,1,6 cost=2 current=3 optimal=1 lb=2 nodes=26 pruned=23 evaluated=66",
    "n=16 MAX u=10 cap=0 limit=4000 | strategy=2 cost=3 current=4 optimal=1 lb=3 nodes=1 pruned=2 evaluated=30",
    "n=16 MAX u=10 cap=0 limit=40 | strategy=2 cost=3 current=4 optimal=1 lb=3 nodes=1 pruned=2 evaluated=30",
    "n=16 MAX u=10 cap=2 limit=1500 | strategy=0,2 cost=3 current=4 optimal=1 lb=3 nodes=15 pruned=14 evaluated=46",
    "n=16 MAX u=10 cap=3 limit=1500 | strategy=0,6,9 cost=2 current=4 optimal=1 lb=2 nodes=40 pruned=30 evaluated=114",
    "n=24 SUM u=0 cap=0 limit=4000 | strategy=23 cost=51 current=58 optimal=1 lb=51 nodes=1 pruned=3 evaluated=67",
    "n=24 SUM u=0 cap=0 limit=40 | strategy=23 cost=51 current=58 optimal=1 lb=51 nodes=1 pruned=3 evaluated=67",
    "n=24 SUM u=0 cap=2 limit=1500 | strategy=7,23 cost=47 current=58 optimal=1 lb=47 nodes=2 pruned=22 evaluated=87",
    "n=24 SUM u=0 cap=3 limit=1500 | strategy=7,8,23 cost=44 current=58 optimal=1 lb=44 nodes=11 pruned=41 evaluated=230",
    "n=24 SUM u=8 cap=0 limit=4000 | strategy=6,23 cost=51 current=64 optimal=1 lb=51 nodes=23 pruned=23 evaluated=364",
    "n=24 SUM u=8 cap=0 limit=40 | strategy=6,23 cost=51 current=64 optimal=1 lb=51 nodes=23 pruned=23 evaluated=364",
    "n=24 SUM u=8 cap=3 limit=1500 | strategy=6,7,23 cost=47 current=64 optimal=1 lb=47 nodes=27 pruned=93 evaluated=435",
    "n=24 SUM u=8 cap=1 limit=1500 | strategy=23 cost=56 current=64 optimal=1 lb=56 nodes=1 pruned=0 evaluated=23",
    "n=24 SUM u=16 cap=0 limit=4000 | strategy=6,23 cost=48 current=60 optimal=1 lb=48 nodes=4 pruned=23 evaluated=170",
    "n=24 SUM u=16 cap=0 limit=40 | strategy=6,23 cost=48 current=60 optimal=1 lb=48 nodes=4 pruned=23 evaluated=170",
    "n=24 SUM u=16 cap=3 limit=1500 | strategy=6,8,23 cost=45 current=60 optimal=1 lb=45 nodes=12 pruned=42 evaluated=302",
    "n=24 SUM u=16 cap=1 limit=1500 | strategy=23 cost=53 current=60 optimal=1 lb=53 nodes=1 pruned=1 evaluated=22",
    "n=24 MAX u=0 cap=0 limit=4000 | strategy=14,22 cost=3 current=5 optimal=1 lb=3 nodes=24 pruned=20 evaluated=154",
    "n=24 MAX u=0 cap=0 limit=40 | strategy=14,22 cost=3 current=5 optimal=1 lb=3 nodes=24 pruned=20 evaluated=154",
    "n=24 MAX u=0 cap=3 limit=1500 | strategy=2,5,13 cost=3 current=5 optimal=1 lb=3 nodes=46 pruned=40 evaluated=174",
    "n=24 MAX u=0 cap=1 limit=1500 | strategy=13 cost=4 current=5 optimal=1 lb=4 nodes=1 pruned=0 evaluated=23",
    "n=24 MAX u=8 cap=0 limit=4000 | strategy=0,22 cost=3 current=5 optimal=1 lb=3 nodes=1 pruned=3 evaluated=129",
    "n=24 MAX u=8 cap=0 limit=40 | strategy=0,22 cost=3 current=5 optimal=1 lb=3 nodes=1 pruned=3 evaluated=129",
    "n=24 MAX u=8 cap=3 limit=1500 | strategy=0,1,22 cost=3 current=5 optimal=1 lb=3 nodes=1 pruned=3 evaluated=129",
    "n=24 MAX u=8 cap=1 limit=1500 | strategy=1 cost=4 current=5 optimal=1 lb=4 nodes=1 pruned=2 evaluated=21",
    "n=24 MAX u=16 cap=0 limit=4000 | strategy=2,7,13 cost=3 current=5 optimal=1 lb=3 nodes=46 pruned=40 evaluated=212",
    "n=24 MAX u=16 cap=0 limit=40 | strategy=2,7,13 cost=3 current=5 optimal=0 lb=1 nodes=40 pruned=35 evaluated=212",
    "n=24 MAX u=16 cap=4 limit=1500 | strategy=0,2,5,13 cost=3 current=5 optimal=1 lb=3 nodes=85 pruned=75 evaluated=281",
    "n=24 MAX u=16 cap=2 limit=1500 | strategy=0,13 cost=4 current=5 optimal=1 lb=4 nodes=24 pruned=15 evaluated=118",
    "n=32 SUM u=0 cap=0 limit=4000 | strategy=1,4,20 cost=59 current=1080 optimal=1 lb=59 nodes=1 pruned=6 evaluated=201",
    "n=32 SUM u=0 cap=0 limit=40 | strategy=1,4,20 cost=59 current=1080 optimal=1 lb=59 nodes=1 pruned=6 evaluated=201",
    "n=32 SUM u=0 cap=4 limit=1500 | strategy=1,10,17,20 cost=55 current=1080 optimal=1 lb=55 nodes=5 pruned=76 evaluated=295",
    "n=32 SUM u=0 cap=2 limit=1500 | strategy=1,20 cost=63 current=1080 optimal=1 lb=63 nodes=2 pruned=30 evaluated=51",
    "n=32 SUM u=11 cap=0 limit=4000 | strategy=20,31 cost=79 current=1103 optimal=1 lb=79 nodes=1 pruned=2 evaluated=150",
    "n=32 SUM u=11 cap=0 limit=40 | strategy=20,31 cost=79 current=1103 optimal=1 lb=79 nodes=1 pruned=2 evaluated=150",
    "n=32 SUM u=11 cap=3 limit=1500 | strategy=16,20,31 cost=70 current=1103 optimal=1 lb=70 nodes=11 pruned=58 evaluated=395",
    "n=32 SUM u=11 cap=1 limit=1500 | strategy=20 cost=103 current=1103 optimal=1 lb=103 nodes=1 pruned=1 evaluated=30",
    "n=32 SUM u=21 cap=0 limit=4000 | strategy=9,17,20,25,27 cost=63 current=1099 optimal=1 lb=63 nodes=19 pruned=178 evaluated=717",
    "n=32 SUM u=21 cap=0 limit=40 | strategy=9,17,20,25,27 cost=63 current=1099 optimal=1 lb=63 nodes=19 pruned=178 evaluated=717",
    "n=32 SUM u=21 cap=6 limit=1500 | strategy=9,10,17,20,25,27 cost=59 current=1099 optimal=1 lb=59 nodes=47 pruned=437 evaluated=1297",
    "n=32 SUM u=21 cap=4 limit=1500 | strategy=0,9,20,31 cost=68 current=1099 optimal=1 lb=68 nodes=10 pruned=85 evaluated=255",
    "n=32 MAX u=0 cap=0 limit=4000 | strategy=1,2,31 cost=3 current=4 optimal=1 lb=3 nodes=1 pruned=4 evaluated=175",
    "n=32 MAX u=0 cap=0 limit=40 | strategy=1,2,31 cost=3 current=4 optimal=1 lb=3 nodes=1 pruned=4 evaluated=175",
    "n=32 MAX u=0 cap=4 limit=1500 | strategy=1,2,3,31 cost=3 current=4 optimal=1 lb=3 nodes=1 pruned=4 evaluated=175",
    "n=32 MAX u=0 cap=2 limit=1500 | strategy=2,31 cost=3 current=4 optimal=1 lb=3 nodes=29 pruned=29 evaluated=55",
    "n=32 MAX u=10 cap=0 limit=4000 | strategy=0,2,4,8 cost=3 current=4 optimal=1 lb=3 nodes=1 pruned=3 evaluated=259",
    "n=32 MAX u=10 cap=0 limit=40 | strategy=0,2,4,8 cost=3 current=4 optimal=1 lb=3 nodes=1 pruned=3 evaluated=259",
    "n=32 MAX u=10 cap=5 limit=1500 | strategy=0,1,2,4,8 cost=3 current=4 optimal=1 lb=3 nodes=602 pruned=536 evaluated=1300",
    "n=32 MAX u=10 cap=3 limit=1500 | strategy=4,8,17 cost=3 current=4 optimal=1 lb=3 nodes=58 pruned=54 evaluated=105",
    "n=32 MAX u=21 cap=0 limit=4000 | strategy=0,4 cost=4 current=5 optimal=1 lb=4 nodes=31 pruned=20 evaluated=359",
    "n=32 MAX u=21 cap=0 limit=40 | strategy=0,4 cost=4 current=5 optimal=1 lb=4 nodes=31 pruned=20 evaluated=359",
    "n=32 MAX u=21 cap=3 limit=1500 | strategy=2,6,31 cost=3 current=5 optimal=1 lb=3 nodes=115 pruned=90 evaluated=581",
    "n=32 MAX u=21 cap=1 limit=1500 | strategy=4 cost=4 current=5 optimal=1 lb=4 nodes=1 pruned=1 evaluated=30",
    "n=48 SUM u=0 cap=0 limit=4000 | strategy=3 cost=4741 current=7030 optimal=1 lb=4741 nodes=1 pruned=4 evaluated=138",
    "n=48 SUM u=0 cap=0 limit=40 | strategy=3 cost=4741 current=7030 optimal=1 lb=4741 nodes=1 pruned=4 evaluated=138",
    "n=48 SUM u=0 cap=2 limit=1500 | strategy=3,4 cost=2438 current=7030 optimal=1 lb=2438 nodes=2 pruned=46 evaluated=181",
    "n=48 SUM u=0 cap=3 limit=1500 | strategy=3,4,12 cost=135 current=7030 optimal=1 lb=135 nodes=3 pruned=88 evaluated=223",
    "n=48 SUM u=16 cap=0 limit=4000 | strategy=3,4 cost=2465 current=7043 optimal=1 lb=2465 nodes=1 pruned=2 evaluated=230",
    "n=48 SUM u=16 cap=0 limit=40 | strategy=3,4 cost=2465 current=7043 optimal=1 lb=2465 nodes=1 pruned=2 evaluated=230",
    "n=48 SUM u=16 cap=3 limit=1500 | strategy=3,4,12 cost=162 current=7043 optimal=1 lb=162 nodes=3 pruned=90 evaluated=319",
    "n=48 SUM u=16 cap=1 limit=1500 | strategy=3 cost=4768 current=7043 optimal=1 lb=4768 nodes=1 pruned=1 evaluated=46",
    "n=48 SUM u=33 cap=0 limit=4000 | strategy=3,4,8,12,17,44 cost=107 current=7014 optimal=1 lb=107 nodes=57 pruned=525 evaluated=2386",
    "n=48 SUM u=33 cap=0 limit=40 | strategy=3,4,8,12,17,44 cost=107 current=7014 optimal=0 lb=49 nodes=40 pruned=310 evaluated=2004",
    "n=48 SUM u=33 cap=7 limit=1500 | strategy=3,4,8,12,17,27,44 cost=101 current=7014 optimal=1 lb=101 nodes=159 pruned=921 evaluated=5325",
    "n=48 SUM u=33 cap=5 limit=1500 | strategy=3,4,12,17,44 cost=114 current=7014 optimal=1 lb=114 nodes=18 pruned=175 evaluated=675",
    "n=48 MAX u=1 cap=0 limit=4000 | strategy=33 cost=5 current=5 optimal=1 lb=5 nodes=1 pruned=0 evaluated=141",
    "n=48 MAX u=1 cap=0 limit=40 | strategy=33 cost=5 current=5 optimal=1 lb=5 nodes=1 pruned=0 evaluated=141",
    "n=48 MAX u=1 cap=2 limit=1500 | strategy=2,5 cost=4 current=5 optimal=1 lb=4 nodes=48 pruned=29 evaluated=613",
    "n=48 MAX u=1 cap=3 limit=1500 | strategy=0,2,5 cost=4 current=5 optimal=1 lb=4 nodes=961 pruned=661 evaluated=7927",
    "n=48 MAX u=16 cap=0 limit=4000 | strategy=3,5 cost=4 current=5 optimal=1 lb=4 nodes=48 pruned=44 evaluated=314",
    "n=48 MAX u=16 cap=0 limit=40 | strategy=3,5 cost=4 current=5 optimal=0 lb=1 nodes=40 pruned=37 evaluated=314",
    "n=48 MAX u=16 cap=3 limit=1500 | strategy=0,3,5 cost=4 current=5 optimal=1 lb=4 nodes=840 pruned=709 evaluated=3345",
    "n=48 MAX u=16 cap=1 limit=1500 | strategy=3 cost=5 current=5 optimal=1 lb=5 nodes=1 pruned=0 evaluated=47",
    "n=48 MAX u=32 cap=0 limit=4000 | strategy=5,31,36 cost=4 current=4 optimal=1 lb=4 nodes=728 pruned=556 evaluated=4882",
    "n=48 MAX u=32 cap=0 limit=40 | strategy=5,31,36 cost=4 current=4 optimal=0 lb=1 nodes=40 pruned=30 evaluated=572",
    "n=48 MAX u=32 cap=4 limit=1500 | strategy=2,4,5,13 cost=3 current=4 optimal=1 lb=3 nodes=131 pruned=126 evaluated=441",
    "n=48 MAX u=32 cap=2 limit=1500 | strategy=0,5 cost=4 current=4 optimal=1 lb=4 nodes=46 pruned=41 evaluated=217",
    "n=64 SUM u=0 cap=0 limit=4000 | strategy=26,36 cost=159 current=4255 optimal=1 lb=159 nodes=1 pruned=7 evaluated=305",
    "n=64 SUM u=0 cap=0 limit=40 | strategy=26,36 cost=159 current=4255 optimal=1 lb=159 nodes=1 pruned=7 evaluated=305",
    "n=64 SUM u=0 cap=3 limit=1500 | strategy=26,36,42 cost=146 current=4255 optimal=1 lb=146 nodes=3 pruned=117 evaluated=416",
    "n=64 SUM u=0 cap=1 limit=1500 | strategy=26 cost=173 current=4255 optimal=1 lb=173 nodes=1 pruned=6 evaluated=57",
    "n=64 SUM u=21 cap=0 limit=4000 | strategy=26 cost=218 current=4296 optimal=1 lb=218 nodes=1 pruned=3 evaluated=187",
    "n=64 SUM u=21 cap=0 limit=40 | strategy=26 cost=218 current=4296 optimal=1 lb=218 nodes=1 pruned=3 evaluated=187",
    "n=64 SUM u=21 cap=2 limit=1500 | strategy=0,26 cost=182 current=4296 optimal=1 lb=182 nodes=2 pruned=62 evaluated=247",
    "n=64 SUM u=21 cap=3 limit=1500 | strategy=0,23,26 cost=167 current=4296 optimal=1 lb=167 nodes=11 pruned=121 evaluated=742",
    "n=64 SUM u=42 cap=0 limit=4000 | strategy=0,10,23,26,36 cost=152 current=4268 optimal=1 lb=152 nodes=170 pruned=1688 evaluated=8174",
    "n=64 SUM u=42 cap=0 limit=40 | strategy=0,10,23,26,36 cost=152 current=4268 optimal=0 lb=64 nodes=40 pruned=512 evaluated=2791",
    "n=64 SUM u=42 cap=6 limit=1500 | strategy=0,11,26,34,38,52 cost=144 current=4268 optimal=1 lb=144 nodes=480 pruned=4977 evaluated=21050",
    "n=64 SUM u=42 cap=4 limit=1500 | strategy=0,23,26,36 cost=160 current=4268 optimal=1 lb=160 nodes=46 pruned=342 evaluated=2075",
    "n=64 MAX u=0 cap=0 limit=4000 | strategy=1,2,3,26,30,37 cost=3 current=5 optimal=1 lb=3 nodes=301 pruned=291 evaluated=1038",
    "n=64 MAX u=0 cap=0 limit=40 | strategy=1,2,3,26,30,37 cost=3 current=5 optimal=0 lb=1 nodes=40 pruned=35 evaluated=1038",
    "n=64 MAX u=0 cap=7 limit=1500 | strategy=1,2,3,4,26,30,37 cost=3 current=5 optimal=1 lb=3 nodes=358 pruned=346 evaluated=1095",
    "n=64 MAX u=0 cap=5 limit=1500 | strategy=1,2,3,4,26 cost=4 current=5 optimal=0 lb=1 nodes=1500 pruned=1354 evaluated=3438",
    "n=64 MAX u=21 cap=0 limit=4000 | strategy=17,52,56 cost=4 current=4 optimal=1 lb=4 nodes=1151 pruned=887 evaluated=9491",
    "n=64 MAX u=21 cap=0 limit=40 | strategy=17,52,56 cost=4 current=4 optimal=0 lb=1 nodes=40 pruned=29 evaluated=922",
    "n=64 MAX u=21 cap=4 limit=1500 | strategy=0,2,3,30 cost=3 current=4 optimal=1 lb=3 nodes=181 pruned=176 evaluated=604",
    "n=64 MAX u=21 cap=2 limit=1500 | strategy=0,2 cost=4 current=4 optimal=1 lb=4 nodes=62 pruned=60 evaluated=278",
    "n=64 MAX u=42 cap=0 limit=4000 | strategy=0,1,2,19 cost=4 current=5 optimal=0 lb=1 nodes=4000 pruned=3050 evaluated=27902",
    "n=64 MAX u=42 cap=0 limit=40 | strategy=0,1,2,19 cost=4 current=5 optimal=0 lb=1 nodes=40 pruned=36 evaluated=780",
    "n=64 MAX u=42 cap=5 limit=1500 | strategy=0,1,2,3,19 cost=4 current=5 optimal=0 lb=1 nodes=1500 pruned=1332 evaluated=6830",
    "n=64 MAX u=42 cap=3 limit=1500 | strategy=0,1,19 cost=4 current=5 optimal=1 lb=4 nodes=569 pruned=433 evaluated=3957",
    "n=96 SUM u=0 cap=0 limit=4000 | strategy=30,34,40 cost=315 current=18720 optimal=1 lb=315 nodes=1 pruned=3 evaluated=652",
    "n=96 SUM u=0 cap=0 limit=40 | strategy=30,34,40 cost=315 current=18720 optimal=1 lb=315 nodes=1 pruned=3 evaluated=652",
    "n=96 SUM u=0 cap=4 limit=1500 | strategy=30,34,40,42 cost=283 current=18720 optimal=1 lb=283 nodes=17 pruned=275 evaluated=2004",
    "n=96 SUM u=0 cap=2 limit=1500 | strategy=30,40 cost=376 current=18720 optimal=1 lb=376 nodes=2 pruned=94 evaluated=185",
    "n=96 SUM u=32 cap=0 limit=4000 | strategy=30 cost=9646 current=18806 optimal=1 lb=9646 nodes=1 pruned=2 evaluated=284",
    "n=96 SUM u=32 cap=0 limit=40 | strategy=30 cost=9646 current=18806 optimal=1 lb=9646 nodes=1 pruned=2 evaluated=284",
    "n=96 SUM u=32 cap=2 limit=1500 | strategy=30,40 cost=431 current=18806 optimal=1 lb=431 nodes=2 pruned=94 evaluated=377",
    "n=96 SUM u=32 cap=3 limit=1500 | strategy=30,40,42 cost=322 current=18806 optimal=1 lb=322 nodes=3 pruned=186 evaluated=469",
    "n=96 SUM u=64 cap=0 limit=4000 | strategy=30,34,40,42 cost=291 current=18707 optimal=1 lb=291 nodes=36 pruned=278 evaluated=3493",
    "n=96 SUM u=64 cap=0 limit=40 | strategy=30,34,40,42 cost=291 current=18707 optimal=1 lb=291 nodes=36 pruned=278 evaluated=3493",
    "n=96 SUM u=64 cap=5 limit=1500 | strategy=30,40,42,53,56 cost=269 current=18707 optimal=1 lb=269 nodes=108 pruned=1268 evaluated=8480",
    "n=96 SUM u=64 cap=3 limit=1500 | strategy=30,34,40 cost=327 current=18707 optimal=1 lb=327 nodes=3 pruned=186 evaluated=279",
    "n=96 MAX u=0 cap=0 limit=4000 | strategy=1,2,5,30,45,69 cost=4 current=27648 optimal=0 lb=1 nodes=4000 pruned=3678 evaluated=18407",
    "n=96 MAX u=0 cap=0 limit=40 | strategy=1,2,5,30,45,69 cost=4 current=27648 optimal=0 lb=1 nodes=40 pruned=34 evaluated=1806",
    "n=96 MAX u=0 cap=7 limit=1500 | strategy=1,2,3,5,30,45,69 cost=4 current=27648 optimal=0 lb=1 nodes=1500 pruned=1372 evaluated=8567",
    "n=96 MAX u=0 cap=5 limit=1500 | strategy=2,15,30,45,69 cost=4 current=27648 optimal=0 lb=1 nodes=1500 pruned=1404 evaluated=6336",
    "n=96 MAX u=33 cap=0 limit=4000 | strategy=0,1,2,30,45,69 cost=4 current=27648 optimal=0 lb=1 nodes=4000 pruned=3715 evaluated=15397",
    "n=96 MAX u=33 cap=0 limit=40 | strategy=0,1,2,30,45,69 cost=4 current=27648 optimal=0 lb=1 nodes=40 pruned=37 evaluated=1627",
    "n=96 MAX u=33 cap=7 limit=1500 | strategy=0,1,2,3,30,45,69 cost=4 current=27648 optimal=0 lb=1 nodes=1500 pruned=1381 evaluated=6601",
    "n=96 MAX u=33 cap=5 limit=1500 | strategy=0,1,30,45,69 cost=4 current=27648 optimal=1 lb=4 nodes=1265 pruned=1171 evaluated=9348",
    "n=96 MAX u=64 cap=0 limit=4000 | strategy=0,45,69 cost=5 current=27648 optimal=1 lb=5 nodes=184 pruned=182 evaluated=922",
    "n=96 MAX u=64 cap=0 limit=40 | strategy=0,45,69 cost=5 current=27648 optimal=0 lb=1 nodes=40 pruned=40 evaluated=832",
    "n=96 MAX u=64 cap=4 limit=1500 | strategy=5,30,45,69 cost=4 current=27648 optimal=1 lb=4 nodes=274 pruned=266 evaluated=1267",
    "n=96 MAX u=64 cap=2 limit=1500 | strategy=45,69 cost=6 current=27648 optimal=1 lb=6 nodes=93 pruned=93 evaluated=183",
    "n=30 MAX u=0 cap=4 limit=4000 | strategy=1,10,12,20 cost=4 current=5 optimal=1 lb=4 nodes=217 pruned=200 evaluated=845",
};

TEST(SolverExact, SearchTreeGoldenIsReproducedExactly) {
  const std::vector<std::string> lines = search_tree_corpus();
  ASSERT_EQ(lines.size(), std::size(kSearchTreeGolden));
  int truncated = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], kSearchTreeGolden[i]) << "corpus solve " << i;
    if (lines[i].find("optimal=0") != std::string::npos) ++truncated;
  }
  EXPECT_GT(truncated, 0);  // the golden must cover node-limited incumbents too
}

/// Components of G − u, the player's own singleton left out.
std::uint32_t base_components(const Digraph& g, Vertex u) {
  return connected_components(best_response_base(g, u)).count - 1;
}

/// g with u's strategy replaced by `cap` random heads, so that
/// naive_exact_best_response (which solves at the out-degree) solves at `cap`.
Digraph with_out_degree(Digraph g, Vertex u, std::uint32_t cap, Rng& rng) {
  std::vector<Vertex> heads;
  for (const std::uint32_t i : rng.sample(g.num_vertices() - 1, cap)) {
    heads.push_back(i < u ? i : i + 1);
  }
  g.set_strategy(u, heads);
  return g;
}

/// Random instances at n ≤ 10 whose densities range from well below a tree's
/// (σ ≈ n/3, many components once a player leaves) to 2n.
Digraph sparse_or_dense_instance(std::uint32_t n, Rng& rng) {
  const std::uint64_t sigma = n / 3 + rng.next_below(2 * n);
  return random_profile(random_budgets(n, sigma, rng), rng);
}

TEST(SolverExact, MaxBoundsMatchBruteForceAtEveryCap) {
  // The pre-probe MAX bounds (unseeded components, k-center packing) must
  // never cut a strictly better completion: at every cap 0..n−1 the search
  // closes on the brute-force optimum, on bases with one, two and three or
  // more components, and on three_component_instance() at caps 0..4. Each
  // cap ≥ 1 is solved from three incumbents: a current strategy of cap heads
  // (seeded by greedy + swap), of n − 1 heads (a forced shrink: the search
  // starts from the empty set) and of none (the empty strategy seeds).
  const ExactBranchAndBound bb;
  Rng rng(8128);
  std::uint32_t by_components[3] = {0, 0, 0};
  const auto check = [&](const Digraph& g, Vertex u, std::uint32_t cap) {
    const std::uint32_t n = g.num_vertices();
    const Digraph h = with_out_degree(g, u, cap, rng);
    const SolverResult reference = naive_exact_best_response(h, u, CostVersion::Max);
    for (const std::uint32_t degree : {cap, n - 1, 0u}) {
      if (cap == 0 && degree != cap) continue;
      SolverBudget budget;
      budget.budget_cap = cap;
      const Digraph start = degree == cap ? h : with_out_degree(g, u, degree, rng);
      const SolverResult result = bb.solve(start, u, CostVersion::Max, budget);
      const std::string where = "n " + std::to_string(n) + " u " + std::to_string(u) +
                                " cap " + std::to_string(cap) + " degree " +
                                std::to_string(degree);
      ASSERT_TRUE(result.optimal) << where;
      ASSERT_EQ(result.cost, reference.cost) << where;
      ASSERT_EQ(result.lower_bound, result.cost) << where;
      ASSERT_EQ(result.strategy.size(), cap) << where;
      const StrategyEvaluator eval(h, u, CostVersion::Max);
      StrategyEvaluator::Scratch scratch(n);
      ASSERT_EQ(eval.evaluate(result.strategy, scratch), result.cost) << where;
    }
  };
  for (int round = 0; round < 30; ++round) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(round % 5);  // 6..10
    const Digraph g = sparse_or_dense_instance(n, rng);
    for (Vertex u = 0; u < n; ++u) {
      ++by_components[std::min(base_components(g, u), 3u) - 1];
      for (std::uint32_t cap = 0; cap < n; ++cap) check(g, u, cap);
    }
  }
  const Digraph three = three_component_instance();
  ASSERT_EQ(base_components(three, 0), 3u);
  for (std::uint32_t cap = 0; cap <= 4; ++cap) check(three, 0, cap);
  for (const std::uint32_t count : by_components) EXPECT_GT(count, 20u);
}

TEST(SolverExact, MaxPackingAndUnseededBoundsHoldByEnumeration) {
  // Wherever TableEvaluator::packs(ρ, r) fires on a cover, every set of ≤ r
  // more heads costs more than ρ; and with U components unseeded, the cost
  // is (1 + U)·Cinf and r more heads cost at least (1 + U − r)·Cinf. Both
  // are checked against every head set, scored from scratch.
  Rng rng(8129);
  int packed = 0;
  int unseeded_cut = 0;
  for (int round = 0; round < 40; ++round) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(round % 5);  // 6..10
    const Digraph g = sparse_or_dense_instance(n, rng);
    const std::uint64_t inf = cinf(n);
    for (Vertex u = 0; u < n; ++u) {
      TableEvaluator table(g, u, CostVersion::Max);
      const std::vector<Vertex> current = table.current_strategy();
      for (const Vertex h : current) table.remove_head(h);
      // The cover under test: the in-neighbours plus 0–2 random heads P.
      std::vector<Vertex> path;
      for (const std::uint32_t i : rng.sample(n - 1, static_cast<std::uint32_t>(round % 3))) {
        path.push_back(i < u ? i : i + 1);
        table.add_head(path.back());
      }
      std::vector<Vertex> free;
      for (Vertex t = 0; t < n; ++t) {
        if (t != u && !table.has_head(t)) free.push_back(t);
      }
      // best[k] = the cheapest P ∪ T over every T ⊆ free with |T| ≤ k.
      const StrategyEvaluator eval(g, u, CostVersion::Max);
      StrategyEvaluator::Scratch scratch(n);
      std::vector<std::uint64_t> best(free.size() + 1, ~0ULL);
      for (std::uint32_t mask = 0; mask < (1u << free.size()); ++mask) {
        std::vector<Vertex> heads = path;
        for (std::size_t i = 0; i < free.size(); ++i) {
          if ((mask >> i) & 1u) heads.push_back(free[i]);
        }
        const std::size_t k = heads.size() - path.size();
        best[k] = std::min(best[k], eval.evaluate(heads, scratch));
      }
      for (std::size_t k = 1; k < best.size(); ++k) best[k] = std::min(best[k], best[k - 1]);

      const std::uint64_t unseeded = table.unseeded_components();
      const std::string where = "round " + std::to_string(round) + " u " + std::to_string(u);
      ASSERT_EQ(table.cost(), unseeded > 0 ? (1 + unseeded) * inf : best[0]) << where;
      for (std::uint32_t r = 1; r < best.size(); ++r) {
        if (unseeded > r) {
          ASSERT_GE(best[r], (1 + unseeded - r) * inf) << where << " r " << r;
          ++unseeded_cut;
        }
        for (std::uint64_t rho = 1; rho <= n; ++rho) {
          if (!table.packs(rho, r)) continue;
          ++packed;
          ASSERT_GT(best[r], rho) << where << " r " << r << " rho " << rho;
        }
      }
    }
  }
  EXPECT_GT(packed, 100);  // the corpus exercises both bounds
  EXPECT_GT(unseeded_cut, 100);
}

/// The pairwise dominance sweep exact_bb ran at the root (n ≤ 256) before
/// the closed form, recomputed from the table: in ascending order, t2 falls
/// to the first live t1 ≠ t2 with min(row_t1, in) ≤ min(row_t2, in) at every
/// vertex. Returns the dropped candidates, ascending.
std::vector<Vertex> pairwise_dominated(const TableEvaluator& table) {
  const std::uint32_t n = table.num_vertices();
  const Vertex u = table.player();
  const std::span<const std::uint32_t> in = table.in_cover();
  std::vector<std::uint8_t> dropped(n, 0);
  std::vector<Vertex> out;
  for (Vertex t2 = 0; t2 < n; ++t2) {
    if (t2 == u) continue;
    const std::span<const std::uint32_t> row2 = table.row(t2);
    for (Vertex t1 = 0; t1 < n && dropped[t2] == 0; ++t1) {
      if (t1 == u || t1 == t2 || dropped[t1] != 0) continue;
      const std::span<const std::uint32_t> row1 = table.row(t1);
      bool dominates = true;
      for (Vertex v = 0; v < n && dominates; ++v) {
        dominates = std::min(row1[v], in[v]) <= std::min(row2[v], in[v]);
      }
      if (dominates) {
        dropped[t2] = 1;
        out.push_back(t2);
      }
    }
  }
  return out;
}

/// The closed form: the player's in-neighbours, ascending, while another
/// live candidate remains — at most n − 2 of them.
std::vector<Vertex> closed_form_dominated(const Digraph& g, Vertex u) {
  std::vector<Vertex> in = player_in_neighbors(g, u);
  const std::size_t most = g.num_vertices() >= 2 ? g.num_vertices() - 2 : 0;
  if (in.size() > most) in.resize(most);
  return in;
}

TEST(SolverExact, ClosedFormEliminationMatchesThePairwiseSweep) {
  Rng rng(9300);
  int rounds_with_drops = 0;
  for (int round = 0; round < 240; ++round) {
    const auto n = static_cast<std::uint32_t>(4 + rng.next_below(45));  // 4..48
    const std::uint64_t sigma = n + rng.next_below(n + 1);            // density 1–2
    const Digraph g = random_profile(random_budgets(n, sigma, rng), rng);
    const CostVersion version = round % 2 == 0 ? CostVersion::Sum : CostVersion::Max;
    for (int k = 0; k < 3; ++k) {
      const auto u = static_cast<Vertex>(rng.next_below(n));
      const TableEvaluator table(g, u, version);
      const std::vector<Vertex> expected = closed_form_dominated(g, u);
      ASSERT_EQ(pairwise_dominated(table), expected)
          << "round " << round << " n " << n << " u " << u << " " << to_string(version);
      if (!expected.empty()) ++rounds_with_drops;
    }
  }
  EXPECT_GT(rounds_with_drops, 100);  // the corpus exercises the rule
}

TEST(SolverExact, ClosedFormEliminationEdgeCases) {
  const std::uint32_t n = 12;
  const auto check = [](const Digraph& g, Vertex u, std::size_t dropped) {
    const TableEvaluator table(g, u, CostVersion::Sum);
    const std::vector<Vertex> expected = closed_form_dominated(g, u);
    EXPECT_EQ(expected.size(), dropped);
    EXPECT_EQ(pairwise_dominated(table), expected);
  };

  // No in-arcs: the cycle 1 → 2 → … → n−1 → 1 never points at player 0.
  Digraph no_in(n);
  no_in.add_arc(0, 1);
  no_in.add_arc(0, 5);
  for (Vertex v = 1; v < n; ++v) no_in.add_arc(v, v + 1 < n ? v + 1 : 1);
  check(no_in, 0, 0);

  // In-degree n − 1: every candidate is an in-neighbour, so all but the
  // largest fall.
  Digraph all_in(n);
  for (Vertex v = 0; v < n; ++v) {
    if (v != 4) all_in.add_arc(v, 4);
  }
  all_in.add_arc(4, 7);
  all_in.add_arc(0, 1);
  check(all_in, 4, n - 2);
  const std::vector<Vertex> fallen = closed_form_dominated(all_in, 4);
  EXPECT_EQ(std::find(fallen.begin(), fallen.end(), n - 1), fallen.end());  // the survivor

  // A disconnected base: two directed triangles and an isolated vertex, each
  // triangle with one in-arc to the player 0.
  Digraph split(n);
  for (const Vertex a : {1u, 4u}) {
    split.add_arc(a, a + 1);
    split.add_arc(a + 1, a + 2);
    split.add_arc(a + 2, a);
  }
  split.add_arc(2, 0);
  split.add_arc(6, 0);
  split.add_arc(8, 9);
  check(split, 0, 2);
}

TEST(SolverExact, PrunesInNeighboursPastTheOldDominanceLimit) {
  // At n = 257 the pairwise sweep never ran; the closed form now drops the
  // player's in-neighbours there too, and the certified cost still matches
  // a naive scan of every single head.
  const std::uint32_t n = 257;
  Digraph g = cycle_digraph(n);
  const Vertex u = 128;
  for (const Vertex w : {0u, 40u, 200u, 256u}) g.add_arc(w, u);
  const std::vector<Vertex> in = player_in_neighbors(g, u);
  ASSERT_EQ(in.size(), 5u);
  const ExactBranchAndBound bb;
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    const SolverResult result = bb.solve(g, u, version);
    ASSERT_TRUE(result.optimal) << to_string(version);
    EXPECT_GE(result.nodes_pruned, in.size()) << to_string(version);
    const StrategyEvaluator eval(g, u, version);
    StrategyEvaluator::Scratch scratch(n);
    ASSERT_EQ(result.strategy.size(), 1u);
    EXPECT_EQ(eval.evaluate(result.strategy, scratch), result.cost) << to_string(version);
    std::uint64_t best = ~0ULL;
    for (Vertex t = 0; t < n; ++t) {
      if (t == u) continue;
      const Vertex head[] = {t};
      best = std::min(best, eval.evaluate(head, scratch));
    }
    EXPECT_EQ(result.cost, best) << to_string(version);
  }
}

/// Node-limited solves on the directed n-cycle under a cap of 2 heads,
/// checked against the naive evaluator; returns the summed bfs_avoided,
/// which tells the scoring path and is published as
/// solver.exact_bb.bfs_avoided.
std::uint64_t solve_sparse_instance(std::uint32_t n) {
  const Digraph g = cycle_digraph(n);
  const Vertex u = n / 2;
  const ExactBranchAndBound bb;
  const obs::CounterFrame frame;
  std::uint64_t bfs_avoided = 0;
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    SolverBudget budget;
    budget.budget_cap = 2;
    budget.node_limit = 1;
    const SolverResult result = bb.solve(g, u, version, budget);
    EXPECT_EQ(result.strategy.size(), 2u);
    const StrategyEvaluator eval(g, u, version);
    StrategyEvaluator::Scratch scratch(n);
    EXPECT_EQ(eval.evaluate(result.strategy, scratch), result.cost) << to_string(version);
    EXPECT_LE(result.lower_bound, result.cost);
    EXPECT_LE(result.cost, result.current_cost);
    bfs_avoided += result.bfs_avoided;
  }
  if (obs::enabled()) {
    EXPECT_EQ(frame.value("solver.exact_bb.bfs_avoided"), bfs_avoided);
  }
  return bfs_avoided;
}

TEST(SolverExact, AtTheMatrixLimitScoresOnTheTable) {
  // No oracle runs behind the table, so no BFS is reported avoided.
  EXPECT_EQ(solve_sparse_instance(kTableEvaluatorLimit), 0u);
}

TEST(SolverExact, PastTheMatrixLimitScoresOnTheDeltaOracle) {
  EXPECT_GT(solve_sparse_instance(kTableEvaluatorLimit + 1), 0u);
}

TEST(SolverExact, InNeighbourListsMatchTheHasArcReference) {
  // n = 2 and 64 fill the table by adjacency words, 65 and 130 by 64-lane
  // sweeps; both fills collect In(u) on the way.
  Rng rng(2801);
  for (const std::uint32_t n : {2u, 64u, 65u, 130u}) {
    for (int round = 0; round < 6; ++round) {
      const std::uint64_t sigma = std::min<std::uint64_t>(
          n + rng.next_below(2 * n + 1), std::uint64_t{n} * (n - 1));
      Digraph g = random_profile(random_budgets(n, sigma, rng), rng);
      const auto u = static_cast<Vertex>(rng.next_below(n));
      if (round % 2 == 1) {
        // Crowd the player's in-arcs so long In(u) lists are covered too.
        for (Vertex w = 0; w < n; w += 3) {
          if (w != u && !g.has_arc(w, u)) g.add_arc(w, u);
        }
      }
      const std::vector<Vertex> expected = naive_player_in_neighbors(g, u);
      const CostVersion version = round % 3 == 0 ? CostVersion::Max : CostVersion::Sum;
      EXPECT_EQ(TableEvaluator(g, u, version).in_neighbors(), expected) << "n " << n;
      EXPECT_EQ(CsrDeltaEvaluator(g, u, version).in_neighbors(), expected) << "n " << n;
    }
  }
}

TEST(SolverExact, CacheKeysAreEqualExactlyWhenTheReferenceKeysAre) {
  // Families of near-identical queries: each variant changes one thing the
  // key must see (an arc, an in-arc, the cap, the version, the player) or
  // one it must not (the player's own out-arcs).
  struct Query {
    Digraph g;
    Vertex player;
    CostVersion version;
    std::uint32_t cap;
  };
  Rng rng(2802);
  std::size_t equal_pairs = 0;
  std::size_t own_arc_pairs = 0;
  for (int round = 0; round < 60; ++round) {
    const auto n = static_cast<std::uint32_t>(2 + rng.next_below(39));  // 2..40
    const std::uint64_t sigma =
        std::min<std::uint64_t>(n + rng.next_below(n + 1), std::uint64_t{n} * (n - 1));
    const Digraph g = random_profile(random_budgets(n, sigma, rng), rng);
    const auto u = static_cast<Vertex>(rng.next_below(n));
    const std::uint32_t cap = static_cast<std::uint32_t>(rng.next_below(n));
    std::vector<Query> family;
    family.push_back({g, u, CostVersion::Sum, cap});
    family.push_back({g, u, CostVersion::Max, cap});
    family.push_back({g, u, CostVersion::Sum, cap + 1 < n ? cap + 1 : 0});
    family.push_back({g, (u + 1) % n, CostVersion::Sum, cap});
    // The player's own strategy: rotated heads, none, and every vertex.
    std::vector<Vertex> heads;
    for (const Vertex h : g.out_neighbors(u)) {
      if ((h + 1) % n != u) heads.push_back((h + 1) % n);
    }
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
    const std::size_t own_first = family.size();
    for (const std::vector<Vertex>& strategy : {heads, std::vector<Vertex>{}}) {
      Digraph moved = g;
      moved.set_strategy(u, strategy);
      family.push_back({std::move(moved), u, CostVersion::Sum, cap});
    }
    Digraph everywhere = g;
    std::vector<Vertex> all;
    for (Vertex t = 0; t < n; ++t) {
      if (t != u) all.push_back(t);
    }
    everywhere.set_strategy(u, all);
    family.push_back({std::move(everywhere), u, CostVersion::Sum, cap});
    const std::size_t own_last = family.size();
    // One in-arc flipped, and one arc elsewhere flipped.
    {
      const Vertex w = (u + 1 + static_cast<Vertex>(rng.next_below(n - 1))) % n;
      Digraph flipped = g;
      if (flipped.has_arc(w, u)) {
        flipped.remove_arc(w, u);
      } else {
        flipped.add_arc(w, u);
      }
      family.push_back({std::move(flipped), u, CostVersion::Sum, cap});
    }
    if (n >= 3) {
      Vertex a = static_cast<Vertex>(rng.next_below(n));
      while (a == u) a = (a + 1) % n;
      Vertex b = (a + 1) % n;
      while (b == u || b == a) b = (b + 1) % n;
      Digraph flipped = g;
      if (flipped.has_arc(a, b)) {
        flipped.remove_arc(a, b);
      } else {
        flipped.add_arc(a, b);
      }
      family.push_back({std::move(flipped), u, CostVersion::Sum, cap});
    }

    for (std::size_t i = 0; i < family.size(); ++i) {
      const Query& a = family[i];
      const std::string key_a = TranspositionCache::make_key(a.g, a.player, a.version, a.cap);
      const std::string ref_a = naive_cache_key(a.g, a.player, a.version, a.cap);
      for (std::size_t j = 0; j < family.size(); ++j) {
        const Query& b = family[j];
        const bool equal =
            key_a == TranspositionCache::make_key(b.g, b.player, b.version, b.cap);
        ASSERT_EQ(equal, ref_a == naive_cache_key(b.g, b.player, b.version, b.cap))
            << "round " << round << " n " << n << " variants " << i << ", " << j;
        if (i != j && equal) ++equal_pairs;
        if (i == 0 && j >= own_first && j < own_last) {
          EXPECT_TRUE(equal) << "round " << round << ": the player's own arcs changed the key";
          ++own_arc_pairs;
        }
      }
    }
  }
  EXPECT_GE(own_arc_pairs, 180u);
  EXPECT_GT(equal_pairs, own_arc_pairs);
}

/// The StateTable corpus: random budgets with σ ∈ {n/2, n, 2n} (capped at
/// n(n − 1)), a random tree and the edgeless graph at each n, and
/// three_component_instance().
std::vector<Digraph> state_table_corpus() {
  Rng rng(2901);
  std::vector<Digraph> corpus;
  for (const std::uint32_t n : {1u, 2u, 3u, 8u, 24u, 63u, 64u}) {
    for (const std::uint64_t sigma : {n / 2, n, 2 * n}) {
      const std::uint64_t capped = std::min<std::uint64_t>(sigma, std::uint64_t{n} * (n - 1));
      corpus.push_back(random_profile(random_budgets(n, capped, rng), rng));
    }
    corpus.push_back(random_tree_digraph(n, rng));
    corpus.push_back(Digraph(n));
  }
  corpus.push_back(three_component_instance());
  return corpus;
}

/// Every entry, In(u), the unseeded component count and the current cost of
/// a TableEvaluator derived from `state` against one filled from scratch.
void expect_same_evaluator(const Digraph& g, Vertex u, const StateTable* state,
                           const std::string& where) {
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    const TableEvaluator derived(g, u, version, state);
    const TableEvaluator scratch(g, u, version);
    ASSERT_EQ(derived.in_neighbors(), scratch.in_neighbors()) << where;
    ASSERT_EQ(derived.unseeded_components(), scratch.unseeded_components()) << where;
    ASSERT_EQ(derived.current_cost(), scratch.current_cost()) << where;
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      if (t == u) continue;
      const std::span<const std::uint32_t> a = derived.row(t);
      const std::span<const std::uint32_t> b = scratch.row(t);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << where << " row " << t;
    }
  }
}

TEST(SolverExact, StateTableRowsMatchFromScratch) {
  // Every player's G − u table derived from one StateTable (copied rows
  // where affected(u) is clear, re-BFSed rows elsewhere) equals the one
  // filled by a BFS per row, on the graph itself and on a copy whose only
  // change is the player's strategy (as solve()'s degree-normalised copy),
  // and affected(u) marks exactly the rows that deleting u changes.
  Rng rng(2902);
  std::uint64_t copied = 0;
  std::uint64_t rebuilt = 0;
  for (const Digraph& g : state_table_corpus()) {
    const std::uint32_t n = g.num_vertices();
    StateTable state(g);
    ASSERT_EQ(state.request(), nullptr);  // the first request fills nothing
    const StateTable* table = state.request();
    ASSERT_EQ(table, &state);
    EXPECT_EQ(table->components(), connected_components(g.underlying()).count);
    for (Vertex u = 0; u < n; ++u) {
      const std::string where = "n " + std::to_string(n) + " u " + std::to_string(u);
      expect_same_evaluator(g, u, table, where);
      // The lemma's "exactly": bit s of affected(u) is set iff row s of
      // G − u differs from row s of G off column u.
      const TableEvaluator fresh(g, u, CostVersion::Sum);
      for (Vertex src = 0; src < n; ++src) {
        if (src == u) continue;
        const std::span<const std::uint32_t> a = fresh.row(src);
        const std::span<const std::uint32_t> b = table->row(src);
        bool differs = false;
        for (Vertex v = 0; v < n; ++v) differs = differs || (v != u && a[v] != b[v]);
        ASSERT_EQ(differs, (table->affected(u) >> src & 1) != 0) << where << " source " << src;
      }
      const auto cap = static_cast<std::uint32_t>(rng.next_below(n));
      const Digraph moved = with_out_degree(g, u, cap, rng);
      ASSERT_TRUE(table->serves(moved, u));
      expect_same_evaluator(moved, u, table, where + " cap " + std::to_string(cap));
      const auto affected = static_cast<std::uint32_t>(std::popcount(table->affected(u)));
      rebuilt += affected;
      copied += n - affected;
    }
  }
  // Both arms of the row loop ran.
  EXPECT_GT(copied, 0u);
  EXPECT_GT(rebuilt, 0u);
}

TEST(SolverExact, StateTableServesOnlyGraphsThatAgreeOffThePlayer) {
  Rng rng(2903);
  const Digraph g = random_profile(random_budgets(12, 20, rng), rng);
  const StateTable state(g);
  Digraph other = g;
  Vertex a = 0;
  while (other.out_degree(a) == 0) ++a;
  other.remove_arc(a, other.out_neighbors(a)[0]);
  EXPECT_TRUE(state.serves(other, a));
  EXPECT_FALSE(state.serves(other, (a + 1) % 12));
  EXPECT_FALSE(state.serves(Digraph(11), 0));
}

TEST(SolverExact, CapZeroAndCacheHitCostsReadOffTheStateTable) {
  // The cap-0 answer and a cache hit's current cost come off the table's
  // row of the player; each must equal vertex_cost, SUM and MAX, on
  // connected and disconnected graphs, and every solve must return the same
  // result as one without the table.
  const ExactBranchAndBound bb;
  Rng rng(2904);
  std::uint32_t graphs[2] = {0, 0};  // disconnected, connected
  std::uint32_t cap_zero = 0;
  std::uint64_t hits = 0;
  for (int round = 0; round < 24; ++round) {
    const auto n = static_cast<std::uint32_t>(6 + rng.next_below(30));
    const std::uint64_t sigma = round % 2 == 0 ? n / 2 : 2 * n;
    const Digraph g = random_profile(random_budgets(n, sigma, rng), rng);
    const bool connected = connected_components(g.underlying()).count == 1;
    ++graphs[connected ? 1 : 0];
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      StateTable state(g);
      TranspositionCache with_table;
      TranspositionCache without_table;
      for (int pass = 0; pass < 2; ++pass) {  // the second pass hits the caches
        for (Vertex u = 0; u < n; ++u) {
          SolverBudget budget;
          budget.node_limit = 2000;
          const SolverResult a = bb.solve(g, u, version, budget, nullptr, &with_table, &state);
          const SolverResult b = bb.solve(g, u, version, budget, nullptr, &without_table);
          const std::string where = "round " + std::to_string(round) + " u " + std::to_string(u);
          ASSERT_EQ(a.current_cost, vertex_cost(g, u, version)) << where;
          ASSERT_EQ(describe_solve(n, version, u, 0, 2000, a),
                    describe_solve(n, version, u, 0, 2000, b))
              << where;
          if (g.out_degree(u) == 0) ++cap_zero;
        }
      }
      hits += with_table.stats().hits;
      ASSERT_NE(state.request(), nullptr);
      for (Vertex u = 0; u < n; ++u) {
        EXPECT_EQ(state.vertex_cost(u, version), vertex_cost(g, u, version));
        EXPECT_EQ(player_cost(g, u, version, &state), vertex_cost(g, u, version));
      }
      EXPECT_EQ(with_table.stats().hits, without_table.stats().hits);
    }
    // A graph whose player holds other out-arcs than the table's graph falls
    // back to a BFS for that player's cost.
    StateTable state(g);
    ASSERT_EQ(state.request(), nullptr);
    ASSERT_NE(state.request(), nullptr);
    const Vertex u = static_cast<Vertex>(rng.next_below(n));
    const Digraph moved = with_out_degree(g, u, static_cast<std::uint32_t>(rng.next_below(n)), rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      EXPECT_EQ(player_cost(moved, u, version, &state), vertex_cost(moved, u, version));
    }
  }
  EXPECT_GT(graphs[0], 0u);
  EXPECT_GT(graphs[1], 0u);
  EXPECT_GT(cap_zero, 0u);
  EXPECT_GT(hits, 0u);
}

/// Sort random (saving, vertex) candidates with tied savings (every saving
/// below n³) both by exact_bb's branch order — best saving first, ties to
/// the smaller vertex — and as descending BranchKey<Key> words, and check
/// the two orders agree and every key reads back its saving and vertex.
template <class Key>
void expect_branch_key_order(std::uint32_t n, Rng& rng) {
  const BranchKey<Key> branch(n);
  const std::uint64_t n3 = std::uint64_t{n} * n * n;
  for (int round = 0; round < 20; ++round) {
    // A few distinct savings, the largest possible one among them, so that
    // most candidates tie.
    std::vector<std::uint64_t> pool = {n3 - 1, 0};
    for (int i = 0; i < 3; ++i) pool.push_back(rng.next_below(n3));
    const auto count = static_cast<std::uint32_t>(std::min<std::uint64_t>(n, 40));
    std::vector<std::pair<std::uint64_t, Vertex>> expected;
    std::vector<Key> keys;
    for (const std::uint32_t i : rng.sample(n, count)) {
      const auto t = static_cast<Vertex>(i);
      const std::uint64_t saving = pool[rng.next_below(pool.size())];
      expected.emplace_back(saving, t);
      keys.push_back(branch.pack(saving, t));
      ASSERT_EQ(branch.saving(keys.back()), saving) << "n " << n;
      ASSERT_EQ(branch.vertex(keys.back()), t) << "n " << n;
    }
    std::sort(expected.begin(), expected.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::sort(keys.begin(), keys.end(), std::greater<>());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(branch.saving(keys[i]), expected[i].first) << "n " << n << " rank " << i;
      ASSERT_EQ(branch.vertex(keys[i]), expected[i].second) << "n " << n << " rank " << i;
    }
  }
}

TEST(SolverExact, BranchKeysOrderLikeBestSavingFirst) {
  Rng rng(2905);
  // The table path keys on 64 bits up to its limit.
  for (const std::uint32_t n : {2u, 64u, kTableEvaluatorLimit}) {
    expect_branch_key_order<std::uint64_t>(n, rng);
  }
  // A CSR-path size whose largest key does not fit 64 bits.
  constexpr std::uint32_t kWide = 70000;
  static_assert(kWide > kTableEvaluatorLimit);
  const std::uint64_t n3 = std::uint64_t{kWide} * kWide * kWide;
  ASSERT_NE(BranchKey<WideBranchKey>(kWide).pack(n3 - 1, 0) >> 64, 0u);
  expect_branch_key_order<WideBranchKey>(kWide, rng);
}

}  // namespace
}  // namespace bbng
