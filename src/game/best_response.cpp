#include "game/best_response.hpp"

#include <algorithm>
#include <mutex>

#include "parallel/parallel_for.hpp"
#include "solver/registry.hpp"
#include "util/combinatorics.hpp"

namespace bbng {
namespace {

/// Map a candidate index in {0,…,n-2} to a vertex id, skipping `u`.
inline Vertex index_to_vertex(std::uint32_t index, Vertex u) noexcept {
  return index >= u ? index + 1 : index;
}

/// Lexicographic comparison used for deterministic tie-breaking.
bool lex_less(const std::vector<Vertex>& a, const std::vector<Vertex>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

std::uint64_t BestResponseSolver::candidate_count(const Digraph& g, Vertex u) {
  BBNG_REQUIRE(u < g.num_vertices());
  return binomial(g.num_vertices() - 1, g.out_degree(u));
}

BestResponse BestResponseSolver::exact(const Digraph& g, Vertex u, ThreadPool* pool) const {
  const std::uint64_t total = candidate_count(g, u);
  BBNG_REQUIRE_MSG(total <= exact_limit_,
                   "candidate count exceeds the exact-search limit; use solve()");
  const std::uint32_t n = g.num_vertices();
  const std::uint32_t b = g.out_degree(u);
  const StrategyEvaluator eval(g, u, version_);

  BestResponse result;
  result.current_cost = eval.current_cost();
  result.cost = ~0ULL;
  result.evaluated = total;
  result.exact = true;

  std::mutex merge_mutex;
  ThreadPool& exec = pool ? *pool : ThreadPool::shared();
  const std::uint64_t grain = pick_grain(total, exec.width(), 64);

  const std::function<void(std::uint64_t, std::uint64_t)> chunk = [&](std::uint64_t begin,
                                                                      std::uint64_t end) {
    StrategyEvaluator::Scratch scratch(n);
    std::vector<Vertex> heads(b);
    std::vector<Vertex> best_heads;
    std::uint64_t best_cost = ~0ULL;
    CombinationIterator it(n - 1, b, unrank_combination(n - 1, b, begin));
    for (std::uint64_t rank = begin; rank < end; ++rank, it.advance()) {
      BBNG_ASSERT(it.valid());
      const auto subset = it.current();
      for (std::uint32_t i = 0; i < b; ++i) heads[i] = index_to_vertex(subset[i], u);
      const std::uint64_t cost = eval.evaluate(heads, scratch);
      if (cost < best_cost || (cost == best_cost && lex_less(heads, best_heads))) {
        best_cost = cost;
        best_heads = heads;
      }
    }
    const std::lock_guard<std::mutex> lock(merge_mutex);
    if (best_cost < result.cost ||
        (best_cost == result.cost && lex_less(best_heads, result.strategy))) {
      result.cost = best_cost;
      result.strategy = std::move(best_heads);
    }
  };
  exec.run_chunked(total, grain, chunk);
  return result;
}

template <class Eval>
BestResponse greedy_with(Eval& eval, std::uint32_t budget) {
  const std::uint32_t n = eval.num_vertices();

  BestResponse result;
  result.evaluated = 0;
  result.exact = (budget == 0);
  result.current_cost = eval.current_cost();

  std::vector<Vertex> strategy;
  std::vector<bool> used(n, false);
  used[eval.player()] = true;
  for (std::uint32_t step = 0; step < budget; ++step) {
    Vertex best_target = kUnreachable;
    std::uint64_t best_cost = ~0ULL;
    for (Vertex t = 0; t < n; ++t) {
      if (used[t]) continue;
      const std::uint64_t cost = eval.cost_with_head(t);
      ++result.evaluated;
      if (cost < best_cost) {
        best_cost = cost;
        best_target = t;
      }
    }
    BBNG_ASSERT(best_target != kUnreachable);
    strategy.push_back(best_target);
    used[best_target] = true;
    eval.add_head(best_target);
  }
  std::sort(strategy.begin(), strategy.end());
  // Snapshot before the closing bookkeeping query so bfs_avoided never
  // exceeds `evaluated` (the header promises evaluated − bfs_avoided is a
  // valid count of full-BFS-equivalent evaluations).
  result.bfs_avoided = eval.bfs_avoided();
  result.cost = eval.cost();
  result.strategy = std::move(strategy);
  return result;
}

template <class Eval>
BestResponse swap_improve_with(Eval& eval, std::vector<Vertex> strategy) {
  const std::uint32_t n = eval.num_vertices();

  BestResponse result;
  result.evaluated = 1;
  result.exact = false;
  result.current_cost = eval.current_cost();

  std::vector<bool> used(n, false);
  used[eval.player()] = true;
  std::sort(strategy.begin(), strategy.end());
  for (const Vertex h : strategy) {
    BBNG_ASSERT(eval.has_head(h));
    used[h] = true;
  }
  std::uint64_t cost = eval.cost();

  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < strategy.size() && !improved; ++i) {
      // Drop head i once, then each candidate swap is one probe.
      const Vertex old_head = strategy[i];
      eval.remove_head(old_head);
      for (Vertex t = 0; t < n && !improved; ++t) {
        if (used[t]) continue;
        const std::uint64_t trial_cost = eval.cost_with_head(t);
        ++result.evaluated;
        if (trial_cost < cost) {
          eval.add_head(t);  // commit the probed swap; restart the scan
          used[old_head] = false;
          used[t] = true;
          strategy[i] = t;
          cost = trial_cost;
          improved = true;
        }
      }
      if (!improved) eval.add_head(old_head);
    }
  }
  std::sort(strategy.begin(), strategy.end());
  result.strategy = std::move(strategy);
  result.cost = cost;
  result.bfs_avoided = eval.bfs_avoided();
  return result;
}

template BestResponse greedy_with(NaiveEvaluator&, std::uint32_t);
template BestResponse greedy_with(DeltaEvaluator&, std::uint32_t);
template BestResponse greedy_with(CsrDeltaEvaluator&, std::uint32_t);
template BestResponse greedy_with(TableEvaluator&, std::uint32_t);
template BestResponse swap_improve_with(NaiveEvaluator&, std::vector<Vertex>);
template BestResponse swap_improve_with(DeltaEvaluator&, std::vector<Vertex>);
template BestResponse swap_improve_with(CsrDeltaEvaluator&, std::vector<Vertex>);
template BestResponse swap_improve_with(TableEvaluator&, std::vector<Vertex>);

BestResponse BestResponseSolver::greedy(const Digraph& g, Vertex u) const {
  const std::uint32_t b = g.out_degree(u);
  return with_move_evaluator(g, u, version_, incremental_, core_, [b](auto& eval) {
    // Greedy builds from the empty strategy: strip the incumbent heads.
    for (const Vertex h : eval.current_strategy()) eval.remove_head(h);
    return greedy_with(eval, b);
  });
}

BestResponse BestResponseSolver::swap_improve(const Digraph& g, Vertex u,
                                              std::optional<std::vector<Vertex>> start) const {
  return with_move_evaluator(g, u, version_, incremental_, core_, [&start](auto& eval) {
    // Reconcile the evaluator's head set (the incumbent) with the start.
    std::vector<Vertex> strategy = start.has_value() ? std::move(*start) : eval.current_strategy();
    std::sort(strategy.begin(), strategy.end());
    for (const Vertex h : eval.current_strategy()) {
      if (!std::binary_search(strategy.begin(), strategy.end(), h)) eval.remove_head(h);
    }
    for (const Vertex h : strategy) {
      if (!eval.has_head(h)) eval.add_head(h);
    }
    return swap_improve_with(eval, std::move(strategy));
  });
}

BestResponse BestResponseSolver::solve(const Digraph& g, Vertex u, ThreadPool* pool) const {
  // The ladder body lives in the solver registry's "swap" backend
  // (solver/swap_ladder.hpp), so this entry point and every registry
  // consumer share one bit-identical implementation.
  const SolverBudget budget{/*deadline_seconds=*/0, /*node_limit=*/exact_limit_, incremental_,
                            core_};
  return to_best_response(find_solver("swap").solve(g, u, version_, budget, pool));
}

}  // namespace bbng
