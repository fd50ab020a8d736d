#include "solver/exact_bb.hpp"

#include <algorithm>
#include <span>
#include <type_traits>

#include "game/best_response.hpp"
#include "game/cost.hpp"
#include "game/strategy_eval.hpp"
#include "util/timer.hpp"

namespace bbng {
namespace {

constexpr std::uint64_t kInfCost = ~0ULL;

struct Candidate {
  Vertex t = 0;
  std::uint64_t cost = 0;    ///< probed cost(P ∪ {t})
  std::uint64_t saving = 0;  ///< cost(P) − cost
};

/// One solve's search over the evaluator with_table_evaluator picks:
/// TableEvaluator up to kTableEvaluatorLimit (and with it the seed-distance
/// bound), CsrDeltaEvaluator beyond. The incumbent seed and the DFS share the
/// one evaluator; the DFS path P is its head set.
template <class Eval>
class Search {
 public:
  static constexpr bool kTable = std::is_same_v<Eval, TableEvaluator>;

  Search(Eval& eval, CostVersion version, const SolverBudget& budget, std::uint32_t cap)
      : n_(eval.num_vertices()),
        player_(eval.player()),
        version_(version),
        b_(cap),
        budget_(budget),
        eval_(eval),
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
  void eliminate_dominated(const Digraph& g, SolverResult& result) {
    std::uint32_t live = n_ - 1;
    for (const Vertex w : player_in_neighbors(g, player_)) {
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

    // depth < b here, and the children only touch deeper levels.
    Level& level = levels_[depth];
    std::vector<Candidate>& cands = level.cands;

    // Probe every allowed candidate once; on the table the same pass folds
    // its row into the seed-distance bound's cover.
    cands.clear();
    if constexpr (kTable) {
      const std::span<const std::uint32_t> cover = eval_.cover();
      bound_.assign(cover.begin(), cover.end());
    }
    for (const Vertex t : allowed) {
      std::uint64_t c = 0;
      if constexpr (kTable) {
        c = eval_.cost_with_head(t, bound_);
      } else {
        c = eval_.cost_with_head(t);
      }
      BBNG_ASSERT(c <= cost_p);
      cands.push_back({t, c, cost_p - c});
    }
    evaluated_ += allowed.size();

    // Branch best-saving-first; ties by vertex id keep the order (and with
    // it every node/evaluation count) deterministic. Sorted savings make
    // every SUM savings bound below one prefix-sum lookup.
    std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
      return a.saving != b.saving ? a.saving > b.saving : a.t < b.t;
    });
    std::vector<std::uint64_t>& prefix = level.prefix;
    std::uint64_t gain = 0;
    if (version_ == CostVersion::Sum) {
      // A candidate saving nothing at P saves nothing below P either
      // (single-head savings shrink as P grows) — drop it from the subtree.
      // It adds nothing to any savings sum, so the bounds are unchanged.
      while (!cands.empty() && cands.back().saving == 0) cands.pop_back();
      prefix.resize(cands.size() + 1);
      prefix[0] = 0;
      for (std::size_t i = 0; i < cands.size(); ++i) prefix[i + 1] = prefix[i] + cands[i].saving;
      gain = prefix[std::min<std::size_t>(r, cands.size())];
    }

    const std::uint64_t lb = node_lower_bound(cost_p, gain);
    if (lb >= best_cost_) {
      ++nodes_pruned_;
      return;
    }

    if (r == 1) {
      // Children are leaves and their costs are already probed.
      for (const Candidate& c : cands) {
        if (c.cost < best_cost_) {
          path_.push_back(c.t);
          offer(path_, c.cost);
          path_.pop_back();
        }
      }
      return;
    }

    // Child k branches over the candidates after it: a suffix of one list.
    std::vector<Vertex>& order = level.order;
    order.clear();
    for (const Candidate& c : cands) order.push_back(c.t);
    const std::span<const Vertex> branch(order);
    for (std::size_t k = 0; k < cands.size(); ++k) {
      if (truncated_ || out_of_budget()) {
        truncated_ = true;
        trunc_lb_ = std::min(trunc_lb_, lb);
        return;
      }
      const Candidate& child = cands[k];
      if (version_ == CostVersion::Sum) {
        // Pre-prune with the parent-level savings (≥ the child-level ones):
        // the r − 1 largest after k are the next r − 1 in branch order.
        const std::size_t keep = std::min<std::size_t>(r - 1, cands.size() - k - 1);
        const std::uint64_t child_gain = prefix[k + 1 + keep] - prefix[k + 1];
        if (child.cost - std::min(child.cost, child_gain) >= best_cost_) {
          ++nodes_pruned_;
          continue;
        }
      }
      path_.push_back(child.t);
      eval_.add_head(child.t);
      dfs(branch.subspan(k + 1), std::max(lb, floor_lb), depth + 1);
      eval_.remove_head(child.t);
      path_.pop_back();
    }
  }

  /// One DFS depth's scratch. levels_ is sized b + 1 once per solve and a
  /// node at depth d < b uses only levels_[d], so the suffix spans handed to
  /// its children stay valid, and each level keeps its capacity: once the
  /// deepest level reached is warm, no node allocates.
  struct Level {
    std::vector<Candidate> cands;       ///< probed candidates, branch order
    std::vector<std::uint64_t> prefix;  ///< prefix[i] = Σ of the i largest savings (SUM)
    std::vector<Vertex> order;          ///< cands' vertices; child k gets order[k+1..]
  };

  const std::uint32_t n_;
  const Vertex player_;
  const CostVersion version_;
  const std::uint32_t b_;
  const SolverBudget budget_;
  Eval& eval_;
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
                                         ThreadPool* /*pool*/) const {
  // The cap is the out-degree unless a caller (churn) split them. With
  // cap > degree the search simply runs deeper; with cap < degree the
  // current strategy is infeasible and stops being a seed/floor — the
  // forced-shrink optimum may exceed current_cost.
  SolverResult result;
  if (cap == 0) {
    result.current_cost = vertex_cost(g, player, version);
    result.cost = result.current_cost;
    result.lower_bound = result.cost;
    result.optimal = true;
    result.evaluated = 1;
    return result;
  }
  const bool current_feasible = g.out_degree(player) <= cap;
  with_table_evaluator(g, player, version, [&](auto& eval) {
    Search<std::remove_reference_t<decltype(eval)>> search(eval, version, budget, cap);
    result.current_cost = eval.current_cost();
    search.seed(current_feasible, result);
    search.eliminate_dominated(g, result);
    search.run();
    search.finish(result);
  });
  return result;
}

}  // namespace bbng
