#include "game/best_response.hpp"

#include <algorithm>
#include <functional>
#include <type_traits>

#include "parallel/parallel_for.hpp"
#include "util/combinatorics.hpp"

namespace bbng {
namespace {

/// Walks below this many head sets stay serial even on a wide pool. Measured
/// on a 4-vCPU host, width 4 against width 1 on TableEvaluator: splitting
/// walks of 84–715 head sets ran 1.2–5.5× slower, walks of 1,365–3,876
/// between 1.4× slower and 1.8× faster, and walks of 4,851–888,030 ran
/// 1.2–3.2× faster.
constexpr std::uint64_t kMinParallelLeaves = 4096;

/// The first minimum a lexicographic walk has met.
struct WalkBest {
  std::uint64_t cost = ~0ULL;
  std::vector<Vertex> strategy;
};

/// Non-player vertices above t: the heads a walk can still add after t.
inline std::uint32_t heads_above(Vertex t, std::uint32_t n, Vertex player) noexcept {
  return n - 1 - t - (player > t ? 1 : 0);
}

/// Walk, in lexicographic order, every head set that extends `heads` (held
/// by `eval`, ascending) by `remaining` ≥ 1 heads whose first is in
/// [from, to) and whose later ones ascend above it. One head is added per
/// depth and undone LIFO; each leaf is one cost_with_head. A strict `<`
/// keeps the first minimum met, i.e. the lexicographically least optimum.
template <class Eval>
void lex_walk(Eval& eval, Vertex from, Vertex to, std::uint32_t remaining,
              std::vector<Vertex>& heads, WalkBest& best) {
  const std::uint32_t n = eval.num_vertices();
  const Vertex player = eval.player();
  for (Vertex t = from; t < to; ++t) {
    if (t == player) continue;
    if (remaining == 1) {
      const std::uint64_t cost = eval.cost_with_head(t);
      if (cost < best.cost) {
        best.cost = cost;
        best.strategy = heads;
        best.strategy.push_back(t);
      }
      continue;
    }
    if (heads_above(t, n, player) < remaining - 1) break;
    eval.add_head(t);
    heads.push_back(t);
    lex_walk(eval, t + 1, n, remaining - 1, heads, best);
    heads.pop_back();
    eval.remove_head(t);
  }
}

/// Full enumeration of `budget`-head strategies on `eval` (loaded with the
/// incumbent strategy, as every evaluator is on construction).
template <class Eval>
SolverResult exact_with(Eval& eval, std::uint32_t budget, std::uint64_t total,
                        ThreadPool& exec) {
  const std::uint32_t n = eval.num_vertices();
  const Vertex player = eval.player();

  SolverResult result;
  result.current_cost = eval.current_cost();
  result.evaluated = total;
  result.optimal = true;
  for (const Vertex h : eval.current_strategy()) eval.remove_head(h);
  if (budget == 0) {
    result.cost = eval.cost();
    result.bfs_avoided = eval.bfs_avoided();
    return result;
  }

  // Only the table splits: a copy of it is plain data, while a delta
  // oracle's copy would carry counters each chunk must not count again.
  // Above the table limit exact is feasible only for b ≤ 1 or b ≥ n − 2.
  WalkBest best;
  const bool split = std::is_same_v<Eval, TableEvaluator> && exec.width() > 1 &&
                     total >= kMinParallelLeaves;
  if (!split) {
    std::vector<Vertex> heads;
    heads.reserve(budget);
    lex_walk(eval, 0, n, budget, heads, best);
  } else {
    // Split by first head: each chunk walks its first heads on its own copy
    // of the stripped evaluator, and the chunk winners merge in first-head
    // order under the same strict `<`, so the result is the serial walk's.
    // The split balances poorly when b is close to n: first head 0 alone
    // carries a b/(n−1) share of the head sets.
    std::vector<Vertex> firsts;
    for (Vertex t = 0; t < n; ++t) {
      if (t != player && heads_above(t, n, player) >= budget - 1) firsts.push_back(t);
    }
    const std::uint64_t grain = pick_grain(firsts.size(), exec.width());
    std::vector<WalkBest> winners((firsts.size() + grain - 1) / grain);
    const std::function<void(std::uint64_t, std::uint64_t)> chunk = [&](std::uint64_t begin,
                                                                        std::uint64_t end) {
      Eval local = eval;
      std::vector<Vertex> heads;
      heads.reserve(budget);
      lex_walk(local, firsts[begin], firsts[end - 1] + 1, budget, heads, winners[begin / grain]);
    };
    exec.run_chunked(firsts.size(), grain, chunk);
    for (WalkBest& winner : winners) {
      if (winner.cost < best.cost) best = std::move(winner);
    }
  }
  result.bfs_avoided = eval.bfs_avoided();
  result.cost = best.cost;
  result.strategy = std::move(best.strategy);
  return result;
}

}  // namespace

std::uint64_t BestResponseSolver::candidate_count(const Digraph& g, Vertex u) {
  BBNG_REQUIRE(u < g.num_vertices());
  return binomial(g.num_vertices() - 1, g.out_degree(u));
}

SolverResult BestResponseSolver::exact(const Digraph& g, Vertex u, ThreadPool* pool) const {
  const std::uint64_t total = candidate_count(g, u);
  BBNG_REQUIRE_MSG(total <= exact_limit_,
                   "candidate count exceeds the exact-search limit; use the \"swap\" backend");
  const std::uint32_t b = g.out_degree(u);
  ThreadPool& exec = pool ? *pool : ThreadPool::shared();
  return with_table_evaluator(g, u, version_, nullptr, [&](auto& eval) {
    return exact_with(eval, b, total, exec);
  });
}

template <class Eval>
SolverResult greedy_with(Eval& eval, std::uint32_t budget) {
  const std::uint32_t n = eval.num_vertices();

  SolverResult result;
  result.evaluated = 0;
  result.optimal = (budget == 0);
  result.current_cost = eval.current_cost();

  // The targets not yet taken, ascending: each step probes them all at once,
  // and the first (smallest) cheapest one is taken.
  std::vector<Vertex> targets;
  for (Vertex t = 0; t < n; ++t) {
    if (t != eval.player()) targets.push_back(t);
  }
  std::vector<std::uint64_t> costs(targets.size());
  std::vector<Vertex> strategy;
  for (std::uint32_t step = 0; step < budget; ++step) {
    BBNG_ASSERT(!targets.empty());
    const std::span<std::uint64_t> probed(costs.data(), targets.size());
    cost_with_heads(eval, targets, probed);
    result.evaluated += targets.size();
    const auto best = std::min_element(probed.begin(), probed.end()) - probed.begin();
    strategy.push_back(targets[static_cast<std::size_t>(best)]);
    eval.add_head(strategy.back());
    targets.erase(targets.begin() + best);
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
SolverResult swap_improve_with(Eval& eval, std::vector<Vertex> strategy) {
  const std::uint32_t n = eval.num_vertices();

  SolverResult result;
  result.evaluated = 1;
  result.current_cost = eval.current_cost();

  std::vector<bool> used(n, false);
  used[eval.player()] = true;
  std::sort(strategy.begin(), strategy.end());
  for (const Vertex h : strategy) {
    BBNG_ASSERT(eval.has_head(h));
    used[h] = true;
  }
  std::uint64_t cost = eval.cost();
  // Each improving swap is committed, then the pass restarts from head 0.
  while (const std::optional<FirstSwap> swap =
             first_improving_swap(eval, strategy, used, cost, result.evaluated)) {
    eval.add_head(swap->target);
    used[strategy[swap->index]] = false;
    used[swap->target] = true;
    strategy[swap->index] = swap->target;
    cost = swap->cost;
  }
  std::sort(strategy.begin(), strategy.end());
  result.strategy = std::move(strategy);
  result.cost = cost;
  result.bfs_avoided = eval.bfs_avoided();
  return result;
}

template <class Eval>
SolverResult scan_first_improving_swap_with(Eval& eval) {
  // The scan order and early exit are part of the library's determinism
  // contract; only the evaluator behind the probes varies.
  SolverResult scan;
  scan.current_cost = eval.current_cost();
  scan.cost = scan.current_cost;
  scan.strategy = eval.current_strategy();
  std::vector<bool> used(eval.num_vertices(), false);
  for (const Vertex h : scan.strategy) used[h] = true;
  used[eval.player()] = true;
  const std::optional<FirstSwap> swap =
      first_improving_swap(eval, scan.strategy, used, scan.cost, scan.evaluated);
  scan.bfs_avoided = eval.bfs_avoided();
  if (swap) {
    scan.strategy[swap->index] = swap->target;
    std::sort(scan.strategy.begin(), scan.strategy.end());
    scan.cost = swap->cost;
  }
  return scan;
}

template SolverResult greedy_with(NaiveEvaluator&, std::uint32_t);
template SolverResult greedy_with(DeltaEvaluator&, std::uint32_t);
template SolverResult greedy_with(CsrDeltaEvaluator&, std::uint32_t);
template SolverResult greedy_with(TableEvaluator&, std::uint32_t);
template SolverResult swap_improve_with(NaiveEvaluator&, std::vector<Vertex>);
template SolverResult swap_improve_with(DeltaEvaluator&, std::vector<Vertex>);
template SolverResult swap_improve_with(CsrDeltaEvaluator&, std::vector<Vertex>);
template SolverResult swap_improve_with(TableEvaluator&, std::vector<Vertex>);
template SolverResult scan_first_improving_swap_with(NaiveEvaluator&);
template SolverResult scan_first_improving_swap_with(DeltaEvaluator&);
template SolverResult scan_first_improving_swap_with(CsrDeltaEvaluator&);
template SolverResult scan_first_improving_swap_with(TableEvaluator&);

SolverResult scan_first_improving_swap(const Digraph& g, Vertex player, CostVersion version,
                                       bool incremental, GraphCore core) {
  return with_move_evaluator(g, player, version, incremental, core,
                             [](auto& eval) { return scan_first_improving_swap_with(eval); });
}

SolverResult BestResponseSolver::greedy(const Digraph& g, Vertex u) const {
  const std::uint32_t b = g.out_degree(u);
  return with_move_evaluator(g, u, version_, incremental_, core_, [b](auto& eval) {
    // Greedy builds from the empty strategy: strip the incumbent heads.
    for (const Vertex h : eval.current_strategy()) eval.remove_head(h);
    return greedy_with(eval, b);
  });
}

SolverResult BestResponseSolver::swap_improve(const Digraph& g, Vertex u,
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

}  // namespace bbng
