// Unit tests for BudgetGame: budget accounting, tree/connectivity
// thresholds, and realization validation.
#include "game/game.hpp"

#include <gtest/gtest.h>

#include "game/cost.hpp"
#include "graph/generators.hpp"

namespace bbng {
namespace {

TEST(BudgetGame, BasicAccounting) {
  const BudgetGame game({2, 0, 1, 0, 0});
  EXPECT_EQ(game.num_players(), 5U);
  EXPECT_EQ(game.total_budget(), 3U);
  EXPECT_EQ(game.zero_budget_players(), 3U);
  EXPECT_EQ(game.min_budget(), 0U);
  EXPECT_FALSE(game.is_tree_instance());
  EXPECT_FALSE(game.can_connect());
}

TEST(BudgetGame, TreeInstanceDetection) {
  const BudgetGame game({1, 1, 1, 0});  // σ = 3 = n-1
  EXPECT_TRUE(game.is_tree_instance());
  EXPECT_TRUE(game.can_connect());
}

TEST(BudgetGame, BudgetAtLeastNRejected) {
  EXPECT_THROW(BudgetGame({3, 0, 0}), std::invalid_argument);
}

TEST(BudgetGame, EmptyGameRejected) {
  EXPECT_THROW(BudgetGame({}), std::invalid_argument);
}

TEST(BudgetGame, PlayerCountCappedAtCostDomainCeiling) {
  // kMaxPlayers players fit the 64-bit cost domain; one more does not.
  EXPECT_EQ(BudgetGame(std::vector<std::uint32_t>(kMaxPlayers, 0)).num_players(), kMaxPlayers);
  try {
    static_cast<void>(BudgetGame(std::vector<std::uint32_t>(kMaxPlayers + 1, 0)));
    FAIL() << "a game past kMaxPlayers was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("exceeds kMaxPlayers"), std::string::npos)
        << error.what();
  }
  // The worst costs at the ceiling are exact: (n−1)·Cinf and n·Cinf.
  const std::uint64_t inf = cinf(kMaxPlayers);
  EXPECT_EQ((kMaxPlayers - 1) * inf / inf, kMaxPlayers - 1);
  EXPECT_EQ(std::uint64_t{kMaxPlayers} * inf / inf, kMaxPlayers);
}

TEST(BudgetGame, RealizationCheck) {
  const BudgetGame game({1, 1, 0});
  Digraph g(3);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  EXPECT_TRUE(game.is_realization(g));
  g.remove_arc(1, 2);
  EXPECT_FALSE(game.is_realization(g));
  EXPECT_THROW(game.require_realization(g), std::invalid_argument);
}

TEST(Cinf, IsNSquared) {
  EXPECT_EQ(cinf(0), 0U);
  EXPECT_EQ(cinf(5), 25U);
  EXPECT_EQ(cinf(1000), 1000000U);
}

TEST(CostVersionName, Strings) {
  EXPECT_EQ(to_string(CostVersion::Sum), "SUM");
  EXPECT_EQ(to_string(CostVersion::Max), "MAX");
}

TEST(VertexCost, PathSumAndMax) {
  const UGraph g = path_ugraph(4);
  EXPECT_EQ(vertex_cost(g, 0, CostVersion::Sum), 1U + 2 + 3);
  EXPECT_EQ(vertex_cost(g, 1, CostVersion::Sum), 1U + 1 + 2);
  EXPECT_EQ(vertex_cost(g, 0, CostVersion::Max), 3U);
  EXPECT_EQ(vertex_cost(g, 1, CostVersion::Max), 2U);
}

TEST(VertexCost, DisconnectedSumChargesCinfPerMissingVertex) {
  UGraph g(4);  // n² = 16
  g.add_edge(0, 1);
  EXPECT_EQ(vertex_cost(g, 0, CostVersion::Sum), 1U + 16 + 16);
  EXPECT_EQ(vertex_cost(g, 2, CostVersion::Sum), 3U * 16);
}

TEST(VertexCost, DisconnectedMaxUsesComponentPenalty) {
  UGraph g(4);  // κ = 3: {0,1}, {2}, {3}
  g.add_edge(0, 1);
  // cMAX = locdiam (= n² when disconnected) + (κ-1)·n² = 16 + 2·16.
  EXPECT_EQ(vertex_cost(g, 0, CostVersion::Max), 16U + 2 * 16);
  EXPECT_EQ(vertex_cost(g, 2, CostVersion::Max), 16U + 2 * 16);
}

TEST(VertexCost, MaxPenaltyRewardsMerging) {
  // Reducing the number of components must strictly reduce cMAX for every
  // vertex (the (κ−1)·n² term), and cSUM for every vertex whose own set of
  // reachable vertices grows. Vertex 4 stays isolated: its SUM cost is
  // unchanged, but its MAX cost still drops with κ.
  UGraph before(5);
  before.add_edge(0, 1);
  before.add_edge(2, 3);
  UGraph after = before;
  after.add_edge(1, 2);  // κ: 3 → 2
  for (Vertex v = 0; v < 5; ++v) {
    EXPECT_LT(vertex_cost(after, v, CostVersion::Max),
              vertex_cost(before, v, CostVersion::Max));
  }
  for (Vertex v = 0; v < 4; ++v) {
    EXPECT_LT(vertex_cost(after, v, CostVersion::Sum),
              vertex_cost(before, v, CostVersion::Sum));
  }
  EXPECT_EQ(vertex_cost(after, 4, CostVersion::Sum),
            vertex_cost(before, 4, CostVersion::Sum));
}

TEST(AllCosts, MatchesPerVertexCalls) {
  Rng rng(3);
  const UGraph g = connected_erdos_renyi(18, 0.15, rng);
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    const auto costs = all_costs(g, version);
    ASSERT_EQ(costs.size(), 18U);
    for (Vertex v = 0; v < 18; ++v) EXPECT_EQ(costs[v], vertex_cost(g, v, version));
  }
}

TEST(AllCosts, DisconnectedGraphConsistent) {
  UGraph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    const auto costs = all_costs(g, version);
    for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(costs[v], vertex_cost(g, v, version));
  }
}

TEST(SocialCost, DiameterOrCinf) {
  EXPECT_EQ(social_cost(path_ugraph(5)), 4U);
  UGraph g(3);
  EXPECT_EQ(social_cost(g), 9U);
}

}  // namespace
}  // namespace bbng
