#include "solver/exact_bb.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <span>
#include <type_traits>

#include "game/best_response.hpp"
#include "game/strategy_eval.hpp"
#include "util/timer.hpp"

namespace bbng {
namespace {

constexpr std::uint64_t kInfCost = ~0ULL;

// Every table-path saving and vertex fit a 64-bit branch key.
static_assert(4 * std::bit_width(kTableEvaluatorLimit) <= 64);

/// One solve's search over the evaluator with_table_evaluator picks:
/// TableEvaluator up to kTableEvaluatorLimit (and with it the seed-distance
/// bound), CsrDeltaEvaluator beyond. The incumbent seed and the DFS share the
/// one evaluator; the DFS path P is its head set.
template <class Eval>
class Search {
 public:
  static constexpr bool kTable = std::is_same_v<Eval, TableEvaluator>;
  using Key = std::conditional_t<kTable, std::uint64_t, WideBranchKey>;

  Search(Eval& eval, CostVersion version, const SolverBudget& budget, std::uint32_t cap)
      : n_(eval.num_vertices()),
        player_(eval.player()),
        version_(version),
        b_(cap),
        budget_(budget),
        eval_(eval),
        key_(n_),
        levels_(cap + 1) {}

  /// Seed the incumbent (better seeds prune more) with the current strategy
  /// plus a greedy+swap descent — only while they fit the cap (they carry
  /// exactly out-degree heads, so a forced shrink below the current degree
  /// starts from the empty incumbent the DFS root offers). Leaves the
  /// evaluator on the empty head set the DFS grows P from.
  void seed(bool current_feasible, SolverResult& result) {
    const std::vector<Vertex>& current = eval_.current_strategy();
    for (const Vertex h : current) eval_.remove_head(h);
    if (!current_feasible) return;
    offer(current, eval_.current_cost());
    const SolverResult coarse =
        greedy_with(eval_, static_cast<std::uint32_t>(current.size()));
    const SolverResult refined = swap_improve_with(eval_, coarse.strategy);
    offer(coarse.strategy, coarse.cost);
    offer(refined.strategy, refined.cost);
    result.evaluated += coarse.evaluated + refined.evaluated;
    for (const Vertex h : refined.strategy) eval_.remove_head(h);
  }

  void run() {
    std::vector<Vertex> candidates;
    candidates.reserve(n_ - 1);
    for (Vertex t = 0; t < n_; ++t) {
      if (t != player_ && !eliminated_[t]) candidates.push_back(t);
    }
    dfs(candidates, /*floor_lb=*/0, /*depth=*/0);
  }

  /// Drop the player's in-neighbours from the candidate set, ascending,
  /// while another live candidate remains (see the header for why these are
  /// exactly the dominated candidates). Each drop counts as a pruned orbit.
  void eliminate_dominated(SolverResult& result) {
    std::uint32_t live = n_ - 1;
    for (const Vertex w : eval_.in_neighbors()) {
      if (live < 2) break;
      eliminated_[w] = 1;
      --live;
      ++result.nodes_pruned;
    }
  }

  /// Report the search, padding the incumbent to exactly b heads (supersets
  /// never cost more) and re-scoring it so the returned (strategy, cost)
  /// pair is exact.
  void finish(SolverResult& result) {
    result.nodes_explored = nodes_explored_;
    result.nodes_pruned += nodes_pruned_;
    result.evaluated += evaluated_;
    result.bfs_avoided = eval_.bfs_avoided();
    result.optimal = !truncated_;
    result.lower_bound = truncated_ ? std::min(trunc_lb_, best_cost_) : best_cost_;

    std::vector<Vertex>& strategy = best_heads_;
    if (strategy.size() < b_) {
      std::vector<std::uint8_t> used(n_, 0);
      used[player_] = 1;
      for (const Vertex h : strategy) used[h] = 1;
      for (Vertex t = 0; t < n_ && strategy.size() < b_; ++t) {
        if (!used[t]) strategy.push_back(t);
      }
    }
    std::sort(strategy.begin(), strategy.end());
    for (const Vertex h : strategy) eval_.add_head(h);  // the DFS left P empty
    const std::uint64_t padded = eval_.cost();
    BBNG_ASSERT(padded <= best_cost_);
    BBNG_ASSERT(!result.optimal || padded == best_cost_);
    result.cost = padded;
    result.strategy = std::move(strategy);
  }

 private:
  void offer(const std::vector<Vertex>& heads, std::uint64_t cost) {
    if (cost < best_cost_) {
      best_cost_ = cost;
      best_heads_ = heads;
    }
  }

  [[nodiscard]] bool out_of_budget() {
    if (budget_.node_limit > 0 && nodes_explored_ >= budget_.node_limit) return true;
    if (budget_.deadline_seconds > 0 && timer_.elapsed_seconds() >= budget_.deadline_seconds) {
      return true;
    }
    return false;
  }

  /// Admissible lower bound for the subtree (P fixed, ≤ r heads from the
  /// probed candidates). `gain` is the sum of the r largest single-head
  /// savings (SUM; 0 for MAX). See the header for the two bound families.
  [[nodiscard]] std::uint64_t node_lower_bound(std::uint64_t cost_p, std::uint64_t gain) const {
    std::uint64_t lb = 0;
    if (version_ == CostVersion::Sum) {
      // Savings are subadditive: subtract only the r largest single-head
      // savings from the node cost.
      lb = cost_p - std::min(cost_p, gain);
    }
    if constexpr (kTable) {
      // Seed-distance bound: dist(v) ≥ min over every seed the subtree could
      // ever own (in ∪ P via the present cover, plus any allowed candidate —
      // folded into bound_ by the probes). The player's own cover column is
      // 0, so it drops out of both aggregates.
      std::uint64_t sum_lb = 0;
      std::uint32_t max_lb = 0;
      for (const std::uint32_t best : bound_) {
        sum_lb += best;
        max_lb = std::max(max_lb, best);
      }
      lb = std::max(lb, version_ == CostVersion::Sum ? sum_lb : std::uint64_t{max_lb});
    }
    return lb;
  }

  /// The two MAX bounds read off the table before a node's probe (see the
  /// header): true when no completion of P with ≤ r more heads costs less
  /// than the incumbent.
  [[nodiscard]] bool max_completions_lose(std::uint32_t r) {
    const std::uint64_t inf = cinf(n_);
    const std::uint64_t unseeded = eval_.unseeded_components();
    if (unseeded > r && (1 + unseeded - r) * inf >= best_cost_) return true;
    return best_cost_ >= 2 && best_cost_ <= inf && eval_.packs(best_cost_ - 1, r);
  }

  void dfs(std::span<const Vertex> allowed, std::uint64_t floor_lb, std::uint32_t depth) {
    if (truncated_ || out_of_budget()) {
      truncated_ = true;
      trunc_lb_ = std::min(trunc_lb_, floor_lb);
      return;
    }
    ++nodes_explored_;
    const std::uint64_t cost_p = eval_.cost();
    offer(path_, cost_p);
    const std::uint32_t r = b_ - depth;
    if (r == 0 || allowed.empty()) return;
    if constexpr (kTable) {
      if (version_ == CostVersion::Max && max_completions_lose(r)) {
        ++nodes_pruned_;
        return;
      }
    }

    // depth < b here, and the children only touch deeper levels.
    Level& level = levels_[depth];

    // Probe every allowed candidate in one batch; on the table the same
    // kernel call folds every row into the seed-distance bound's cover.
    std::vector<std::uint64_t>& costs = level.costs;
    costs.resize(allowed.size());
    if constexpr (kTable) {
      const std::span<const std::uint32_t> cover = eval_.cover();
      bound_.assign(cover.begin(), cover.end());
      eval_.cost_with_heads(allowed, costs, bound_);
    } else {
      cost_with_heads(eval_, allowed, costs);
    }
    evaluated_ += allowed.size();

    if (r == 1) {
      leaves(allowed, costs, cost_p);
      return;
    }

    // A candidate saving nothing at P saves nothing below P either
    // (single-head savings shrink as P grows), so SUM drops it from the
    // subtree. It adds nothing to any savings sum, so the bounds are
    // unchanged.
    std::vector<Key>& keys = level.keys;
    keys.clear();
    for (std::size_t i = 0; i < allowed.size(); ++i) {
      BBNG_ASSERT(costs[i] <= cost_p);
      const std::uint64_t saving = cost_p - costs[i];
      if (version_ == CostVersion::Sum && saving == 0) continue;
      keys.push_back(key_.pack(saving, allowed[i]));
    }

    // Branch best-saving-first; ties by vertex id keep the order (and with
    // it every node/evaluation count) deterministic. Each candidate is one
    // BranchKey word, and descending words are exactly that order. Only the
    // prefix the child loop reaches is put in order: keys[0, sorted) is
    // sorted, every later key ranks after it, and prefix[i] sums the i
    // largest savings for i ≤ sorted. order mirrors keys, so child k
    // branches over order[k+1..], exactly the candidates ranked after it.
    std::size_t sorted = 0;
    std::vector<std::uint64_t>& prefix = level.prefix;
    std::vector<Vertex>& order = level.order;
    prefix.assign(1, 0);
    order.resize(keys.size());
    const auto sort_through = [&](std::size_t want) {
      want = std::min(want, keys.size());
      if (want <= sorted) return;
      want = std::min(keys.size(), std::max(want, 2 * sorted));  // O(log c) blocks
      const auto first = keys.begin() + static_cast<std::ptrdiff_t>(sorted);
      const auto mid = keys.begin() + static_cast<std::ptrdiff_t>(want);
      std::nth_element(first, mid, keys.end(), std::greater<>());
      std::sort(first, mid, std::greater<>());
      prefix.resize(want + 1);
      for (std::size_t i = sorted; i < want; ++i) prefix[i + 1] = prefix[i] + key_.saving(keys[i]);
      for (std::size_t i = sorted; i < keys.size(); ++i) order[i] = key_.vertex(keys[i]);
      sorted = want;
    };

    std::uint64_t gain = 0;
    if (version_ == CostVersion::Sum) {
      sort_through(r);
      gain = prefix[std::min<std::size_t>(r, keys.size())];
    } else {
      sort_through(keys.size());
    }
    const std::uint64_t lb = node_lower_bound(cost_p, gain);
    if (lb >= best_cost_) {
      ++nodes_pruned_;
      return;
    }

    const std::span<const Vertex> branch(order);
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (truncated_ || out_of_budget()) {
        truncated_ = true;
        trunc_lb_ = std::min(trunc_lb_, lb);
        return;
      }
      if (version_ == CostVersion::Sum) {
        // Pre-prune with the parent-level savings (≥ the child-level ones):
        // the r − 1 largest after k are the next r − 1 in branch order.
        sort_through(k + r);
        const std::uint64_t child_cost = cost_p - key_.saving(keys[k]);
        const std::size_t keep = std::min<std::size_t>(r - 1, keys.size() - k - 1);
        const std::uint64_t child_gain = prefix[k + 1 + keep] - prefix[k + 1];
        if (child_cost - std::min(child_cost, child_gain) >= best_cost_) {
          // In branch order child costs only rise and the next r − 1
          // savings only shrink, while best_cost_ only falls: every later
          // child is pre-pruned too.
          nodes_pruned_ += keys.size() - k;
          return;
        }
      }
      const Vertex t = order[k];
      path_.push_back(t);
      eval_.add_head(t);
      dfs(branch.subspan(k + 1), std::max(lb, floor_lb), depth + 1);
      eval_.remove_head(t);
      path_.pop_back();
    }
  }

  /// A node with one head slot left: its children are leaves whose costs
  /// are probed. One pass finds the least (cost, vertex) child — the one a
  /// best-saving-first walk would offer first, and the only one it could
  /// offer, since the offer lowers best_cost_ to its cost — and with it the
  /// largest saving, the SUM bound's gain. `allowed` is a DFS suffix, not
  /// ascending, so ties go to the smaller vertex explicitly.
  void leaves(std::span<const Vertex> allowed, std::span<const std::uint64_t> costs,
              std::uint64_t cost_p) {
    std::size_t best = 0;
    for (std::size_t i = 0; i < allowed.size(); ++i) {
      BBNG_ASSERT(costs[i] <= cost_p);
      if (costs[i] < costs[best] || (costs[i] == costs[best] && allowed[i] < allowed[best])) {
        best = i;
      }
    }
    const std::uint64_t gain = version_ == CostVersion::Sum ? cost_p - costs[best] : 0;
    if (node_lower_bound(cost_p, gain) >= best_cost_) {
      ++nodes_pruned_;
      return;
    }
    if (costs[best] < best_cost_) {
      path_.push_back(allowed[best]);
      offer(path_, costs[best]);
      path_.pop_back();
    }
  }

  /// One DFS depth's scratch. levels_ is sized b + 1 once per solve and a
  /// node at depth d < b uses only levels_[d], so the suffix spans handed to
  /// its children stay valid, and each level keeps its capacity: once the
  /// deepest level reached is warm, no node allocates.
  struct Level {
    std::vector<std::uint64_t> costs;   ///< probed cost of each allowed candidate
    std::vector<Key> keys;              ///< BranchKey of each candidate, branch order
    std::vector<std::uint64_t> prefix;  ///< prefix[i] = Σ of the i largest savings
    std::vector<Vertex> order;          ///< keys' vertices; child k gets order[k+1..]
  };

  const std::uint32_t n_;
  const Vertex player_;
  const CostVersion version_;
  const std::uint32_t b_;
  const SolverBudget budget_;
  Eval& eval_;
  const BranchKey<Key> key_;
  Timer timer_;

  std::vector<Vertex> path_;  ///< the DFS path P (the evaluator's head set)
  std::vector<std::uint8_t> eliminated_ = std::vector<std::uint8_t>(n_, 0);
  std::vector<Level> levels_;         ///< per-depth scratch, b + 1 levels
  std::vector<std::uint32_t> bound_;  ///< seed-distance bound scratch

  std::uint64_t best_cost_ = kInfCost;
  std::vector<Vertex> best_heads_;
  bool truncated_ = false;
  std::uint64_t trunc_lb_ = kInfCost;
  std::uint64_t nodes_explored_ = 0;
  std::uint64_t nodes_pruned_ = 0;
  std::uint64_t evaluated_ = 0;
};

}  // namespace

SolverResult ExactBranchAndBound::search(const Digraph& g, Vertex player, CostVersion version,
                                         const SolverBudget& budget, std::uint32_t cap,
                                         ThreadPool* /*pool*/, StateTable* state) const {
  // The cap is the out-degree unless a caller (churn) split them. With
  // cap > degree the search simply runs deeper; with cap < degree the
  // current strategy is infeasible and stops being a seed/floor — the
  // forced-shrink optimum may exceed current_cost.
  SolverResult result;
  if (cap == 0) {
    result.current_cost = player_cost(g, player, version, state);
    result.cost = result.current_cost;
    result.lower_bound = result.cost;
    result.optimal = true;
    result.evaluated = 1;
    return result;
  }
  const bool current_feasible = g.out_degree(player) <= cap;
  with_table_evaluator(g, player, version, state, [&](auto& eval) {
    Search<std::remove_reference_t<decltype(eval)>> search(eval, version, budget, cap);
    result.current_cost = eval.current_cost();
    search.seed(current_feasible, result);
    search.eliminate_dominated(result);
    search.run();
    search.finish(result);
  });
  return result;
}

}  // namespace bbng
