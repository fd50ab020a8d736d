// The (b1,…,bn)-BG bounded budget network creation game (Section 1.2).
//
// A game instance is just the budget vector; a *state* is a strategy profile,
// represented by its realization Digraph (player i owns out-arcs to exactly
// S_i, |S_i| = b_i). The cost of a player is cSUM or cMAX measured in the
// undirected underlying graph, with disconnection penalised through
// Cinf = n² exactly as the paper specifies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace bbng {

enum class CostVersion { Sum, Max };

[[nodiscard]] std::string to_string(CostVersion version);

/// Cinf = n² — the distance charged for a disconnected pair, chosen so that
/// decreasing the number of components always decreases the cost.
[[nodiscard]] constexpr std::uint64_t cinf(std::uint32_t n) noexcept {
  return static_cast<std::uint64_t>(n) * n;
}

/// Largest player count whose costs fit the 64-bit cost domain: the largest
/// n with n³ < 2⁶⁴. A SUM cost is at most (n−1)·Cinf = (n−1)·n², and a MAX
/// cost κ·Cinf is at most n·n² = n³, so every cost, Cinf and cost difference
/// of an n ≤ kMaxPlayers game is exact in uint64.
inline constexpr std::uint32_t kMaxPlayers = 2'642'245;
static_assert(
    [] {
      using U = unsigned __int128;
      const U n = kMaxPlayers;
      return (n * n * n >> 64) == 0 && ((n + 1) * (n + 1) * (n + 1) >> 64) != 0;
    }(),
    "kMaxPlayers is the largest n with n³ < 2⁶⁴");

class BudgetGame {
 public:
  /// Budgets must satisfy 0 ≤ b_i < n, and n ≤ kMaxPlayers.
  explicit BudgetGame(std::vector<std::uint32_t> budgets);

  [[nodiscard]] std::uint32_t num_players() const noexcept {
    return static_cast<std::uint32_t>(budgets_.size());
  }
  [[nodiscard]] const std::vector<std::uint32_t>& budgets() const noexcept { return budgets_; }
  [[nodiscard]] std::uint32_t budget(Vertex u) const {
    BBNG_REQUIRE(u < budgets_.size());
    return budgets_[u];
  }

  /// Σ b_i.
  [[nodiscard]] std::uint64_t total_budget() const noexcept { return sigma_; }

  /// Number of players with zero budget (the z of Theorem 2.3).
  [[nodiscard]] std::uint32_t zero_budget_players() const noexcept { return zeros_; }

  /// Σ b_i = n − 1: equilibria are trees (Section 3).
  [[nodiscard]] bool is_tree_instance() const noexcept {
    return sigma_ + 1 == budgets_.size();
  }

  /// Σ b_i ≥ n − 1: the connectivity threshold (Lemma 3.1).
  [[nodiscard]] bool can_connect() const noexcept { return sigma_ + 1 >= budgets_.size(); }

  /// min_i b_i (the k of Theorem 7.2).
  [[nodiscard]] std::uint32_t min_budget() const noexcept { return min_budget_; }

  /// True iff the digraph is a legal realization of this game.
  [[nodiscard]] bool is_realization(const Digraph& g) const;

  /// Throwing variant of is_realization.
  void require_realization(const Digraph& g) const;

 private:
  std::vector<std::uint32_t> budgets_;
  std::uint64_t sigma_ = 0;
  std::uint32_t zeros_ = 0;
  std::uint32_t min_budget_ = 0;
};

}  // namespace bbng
