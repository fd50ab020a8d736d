#include "game/improvement_graph.hpp"

#include <algorithm>
#include <vector>

#include "game/best_response.hpp"
#include "graph/digraph.hpp"
#include "util/combinatorics.hpp"

namespace bbng {
namespace {

/// Mixed-radix profile indexing: profile rank = Σ digit_i · stride_i where
/// digit_i is the lexicographic rank of player i's strategy combination.
struct ProfileCodec {
  std::uint32_t n = 0;
  std::vector<std::uint64_t> radix;   ///< C(n-1, b_i) per player
  std::vector<std::uint64_t> stride;  ///< suffix products

  explicit ProfileCodec(const BudgetGame& game) : n(game.num_players()) {
    radix.resize(n);
    stride.assign(n, 1);
    for (Vertex u = 0; u < n; ++u) radix[u] = binomial(n - 1, game.budget(u));
    for (std::uint32_t u = n - 1; u-- > 0;) stride[u] = stride[u + 1] * radix[u + 1];
  }

  [[nodiscard]] std::uint64_t total() const { return stride[0] * radix[0]; }

  /// Rank of one player's strategy (vertex heads → skip-self indices).
  [[nodiscard]] std::uint64_t strategy_digit(Vertex u, std::span<const Vertex> heads) const {
    std::vector<std::uint32_t> subset;
    subset.reserve(heads.size());
    for (const Vertex h : heads) subset.push_back(h > u ? h - 1 : h);
    std::sort(subset.begin(), subset.end());
    return rank_combination(n - 1, subset);
  }

  [[nodiscard]] std::uint64_t encode(const Digraph& g) const {
    std::uint64_t rank = 0;
    for (Vertex u = 0; u < n; ++u) {
      rank += strategy_digit(u, g.out_neighbors(u)) * stride[u];
    }
    return rank;
  }

  [[nodiscard]] Digraph decode(std::uint64_t rank, const BudgetGame& game) const {
    Digraph g(n);
    for (Vertex u = 0; u < n; ++u) {
      const std::uint64_t digit = (rank / stride[u]) % radix[u];
      const auto subset = unrank_combination(n - 1, game.budget(u), digit);
      std::vector<Vertex> heads;
      heads.reserve(subset.size());
      for (const std::uint32_t idx : subset) heads.push_back(idx >= u ? idx + 1 : idx);
      g.set_strategy(u, heads);
    }
    return g;
  }
};

}  // namespace

ImprovementGraphAnalysis analyze_improvement_graph(const BudgetGame& game, CostVersion version,
                                                   std::uint64_t limit) {
  const ProfileCodec codec(game);
  const std::uint64_t total = codec.total();
  BBNG_REQUIRE_MSG(total <= limit, "profile space exceeds the improvement-graph limit");

  ImprovementGraphAnalysis analysis;
  analysis.states = total;

  const BestResponseSolver solver(version, 10'000'000);
  std::vector<std::vector<std::uint32_t>> succ(total);
  std::vector<std::uint32_t> indegree(total, 0);

  for (std::uint64_t state = 0; state < total; ++state) {
    const Digraph g = codec.decode(state, game);
    BBNG_ASSERT(codec.encode(g) == state);
    for (Vertex u = 0; u < game.num_players(); ++u) {
      if (game.budget(u) == 0) continue;
      const SolverResult br = solver.exact(g, u);
      if (!br.improves()) continue;
      const std::uint64_t digit = codec.strategy_digit(u, br.strategy);
      const std::uint64_t old_digit = codec.strategy_digit(u, g.out_neighbors(u));
      const std::uint64_t next =
          state + (digit - old_digit) * codec.stride[u];  // unsigned wrap-safe
      succ[state].push_back(static_cast<std::uint32_t>(next));
      ++indegree[next];
      ++analysis.transitions;
    }
    if (succ[state].empty()) ++analysis.sinks;
  }

  // Kahn's algorithm: if some state never becomes indegree-0, there is a
  // directed cycle. Process in topological order, tracking the longest path
  // (in moves) from any source — its value at a sink bounds convergence.
  std::vector<std::uint64_t> longest(total, 0);
  std::vector<std::uint32_t> queue;
  queue.reserve(total);
  for (std::uint64_t s = 0; s < total; ++s) {
    if (indegree[s] == 0) queue.push_back(static_cast<std::uint32_t>(s));
  }
  std::uint64_t processed = 0;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const std::uint32_t s = queue[qi];
    ++processed;
    if (succ[s].empty()) {
      analysis.max_moves_to_sink = std::max(analysis.max_moves_to_sink, longest[s]);
    }
    for (const std::uint32_t t : succ[s]) {
      longest[t] = std::max(longest[t], longest[s] + 1);
      if (--indegree[t] == 0) queue.push_back(t);
    }
  }
  analysis.has_cycle = processed != total;
  if (analysis.has_cycle) analysis.max_moves_to_sink = 0;

  analysis.every_non_sink_moves = true;  // by construction of succ
  return analysis;
}

}  // namespace bbng
