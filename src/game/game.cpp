#include "game/game.hpp"

#include <algorithm>

namespace bbng {

std::string to_string(CostVersion version) {
  return version == CostVersion::Sum ? "SUM" : "MAX";
}

BudgetGame::BudgetGame(std::vector<std::uint32_t> budgets) : budgets_(std::move(budgets)) {
  BBNG_REQUIRE_MSG(!budgets_.empty(), "a game needs at least one player");
  BBNG_REQUIRE_MSG(budgets_.size() <= kMaxPlayers,
                   "player count exceeds kMaxPlayers (costs would overflow uint64)");
  const auto n = static_cast<std::uint32_t>(budgets_.size());
  min_budget_ = budgets_[0];
  for (const std::uint32_t b : budgets_) {
    BBNG_REQUIRE_MSG(b < n, "budget must be < n (strategies exclude the player itself)");
    sigma_ += b;
    zeros_ += (b == 0);
    min_budget_ = std::min(min_budget_, b);
  }
}

bool BudgetGame::is_realization(const Digraph& g) const {
  if (g.num_vertices() != budgets_.size()) return false;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (g.out_degree(u) != budgets_[u]) return false;
  }
  return true;
}

void BudgetGame::require_realization(const Digraph& g) const {
  BBNG_REQUIRE_MSG(is_realization(g),
                   "digraph is not a realization of this game (outdegrees != budgets)");
}

}  // namespace bbng
