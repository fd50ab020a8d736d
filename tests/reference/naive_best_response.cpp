#include "reference/naive_best_response.hpp"

#include <algorithm>
#include <vector>

#include "game/strategy_eval.hpp"
#include "util/combinatorics.hpp"

namespace bbng {

SolverResult naive_exact_best_response(const Digraph& g, Vertex player, CostVersion version) {
  const std::uint32_t n = g.num_vertices();
  const std::uint32_t b = g.out_degree(player);
  const StrategyEvaluator eval(g, player, version);
  StrategyEvaluator::Scratch scratch(n);

  SolverResult result;
  result.current_cost = eval.current_cost();
  result.cost = ~0ULL;
  result.evaluated = binomial(n - 1, b);
  result.optimal = true;

  std::vector<Vertex> heads(b);
  for (CombinationIterator it(n - 1, b); it.valid(); it.advance()) {
    // Candidate index i in {0, …, n−2} names vertex i, skipping the player.
    const auto subset = it.current();
    for (std::uint32_t i = 0; i < b; ++i) {
      heads[i] = subset[i] >= player ? subset[i] + 1 : subset[i];
    }
    const std::uint64_t cost = eval.evaluate(heads, scratch);
    if (cost < result.cost ||
        (cost == result.cost && std::lexicographical_compare(heads.begin(), heads.end(),
                                                             result.strategy.begin(),
                                                             result.strategy.end()))) {
      result.cost = cost;
      result.strategy = heads;
    }
  }
  return result;
}

}  // namespace bbng
