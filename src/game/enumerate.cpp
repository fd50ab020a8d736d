#include "game/enumerate.hpp"

#include <vector>

#include "game/cost.hpp"
#include "game/equilibrium.hpp"
#include "util/combinatorics.hpp"

namespace bbng {
namespace {

inline Vertex index_to_vertex(std::uint32_t index, Vertex u) noexcept {
  return index >= u ? index + 1 : index;
}

std::vector<Vertex> combination_to_strategy(std::span<const std::uint32_t> subset, Vertex u) {
  std::vector<Vertex> heads;
  heads.reserve(subset.size());
  for (const std::uint32_t idx : subset) heads.push_back(index_to_vertex(idx, u));
  return heads;
}

}  // namespace

std::uint64_t profile_space_size(const BudgetGame& game, std::uint64_t clamp) {
  const std::uint32_t n = game.num_players();
  std::uint64_t total = 1;
  for (Vertex u = 0; u < n; ++u) {
    const std::uint64_t options = binomial(n - 1, game.budget(u), clamp);
    if (options == 0) return 0;  // cannot happen with b < n, defensive
    if (total > clamp / options) return clamp;
    total *= options;
  }
  return total;
}

std::uint64_t for_each_realization(const BudgetGame& game,
                                   const std::function<bool(const Digraph&)>& visit,
                                   std::uint64_t limit) {
  BBNG_REQUIRE_MSG(profile_space_size(game, limit + 1) <= limit,
                   "profile space exceeds the enumeration limit");
  const std::uint32_t n = game.num_players();

  // Mixed-radix odometer of per-player combination iterators.
  std::vector<CombinationIterator> iters;
  iters.reserve(n);
  Digraph g(n);
  for (Vertex u = 0; u < n; ++u) {
    iters.emplace_back(n - 1, game.budget(u));
    BBNG_ASSERT(iters.back().valid());
    g.set_strategy(u, combination_to_strategy(iters.back().current(), u));
  }

  std::uint64_t visited = 0;
  while (true) {
    ++visited;
    if (!visit(g)) return visited;
    // Advance the odometer (player n-1 is the fastest digit).
    std::uint32_t digit = n;
    while (digit-- > 0) {
      auto& it = iters[digit];
      it.advance();
      if (it.valid()) {
        g.set_strategy(digit, combination_to_strategy(it.current(), digit));
        break;
      }
      it.reset();
      g.set_strategy(digit, combination_to_strategy(it.current(), digit));
      if (digit == 0) return visited;  // full wrap: enumeration complete
    }
  }
}

ExhaustiveAnalysis exhaustive_analysis(const BudgetGame& game, CostVersion version,
                                       std::uint64_t limit, ThreadPool* pool) {
  ExhaustiveAnalysis analysis;
  analysis.opt_diameter = ~0ULL;
  analysis.best_equilibrium_diameter = ~0ULL;
  analysis.worst_equilibrium_diameter = 0;

  for_each_realization(
      game,
      [&](const Digraph& g) {
        ++analysis.profiles;
        const std::uint64_t diam = social_cost(g.underlying(), pool);
        analysis.opt_diameter = std::min(analysis.opt_diameter, diam);

        // `limit` bounds the profile count Π_u C(n−1, b_u), so also every
        // player's candidate count: no exact solve is refused.
        if (verify_equilibrium(g, version, limit, pool).stable) {
          ++analysis.equilibria;
          analysis.best_equilibrium_diameter =
              std::min(analysis.best_equilibrium_diameter, diam);
          if (diam >= analysis.worst_equilibrium_diameter) {
            analysis.worst_equilibrium_diameter = diam;
            analysis.worst_equilibrium = g;
          }
        }
        return true;
      },
      limit);

  if (analysis.equilibria > 0 && analysis.opt_diameter > 0) {
    analysis.price_of_stability =
        static_cast<double>(analysis.best_equilibrium_diameter) /
        static_cast<double>(analysis.opt_diameter);
    analysis.price_of_anarchy =
        static_cast<double>(analysis.worst_equilibrium_diameter) /
        static_cast<double>(analysis.opt_diameter);
  } else if (analysis.equilibria > 0) {
    analysis.price_of_stability = 1;
    analysis.price_of_anarchy = 1;
  }
  return analysis;
}

}  // namespace bbng
