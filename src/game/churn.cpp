#include "game/churn.hpp"

#include <algorithm>

#include "game/strategy_eval.hpp"
#include "obs/timing.hpp"
#include "obs/trace.hpp"
#include "solver/registry.hpp"

namespace bbng {
namespace {

/// Deterministic greedy trim on `eval` (holding the player's incumbent
/// heads): drop, one at a time, the head whose removal increases the
/// player's cost least (ties to the smallest head — the list is sorted). For
/// n ≤ kTableEvaluatorLimit it runs on TableEvaluator: O(b²) probes, no BFS.
/// Above, on the delta oracle, the probes are incremental, not BFS runs.
template <class Eval>
std::vector<Vertex> greedy_trim(Eval& eval, std::uint32_t cap) {
  std::vector<Vertex> heads = eval.current_strategy();
  while (heads.size() > cap) {
    std::size_t best_index = 0;
    std::uint64_t best_cost = ~0ULL;
    for (std::size_t i = 0; i < heads.size(); ++i) {
      eval.remove_head(heads[i]);
      const std::uint64_t cost = eval.cost();
      eval.add_head(heads[i]);
      if (cost < best_cost) {
        best_cost = cost;
        best_index = i;
      }
    }
    eval.remove_head(heads[best_index]);
    heads.erase(heads.begin() + static_cast<std::ptrdiff_t>(best_index));
  }
  return heads;
}

}  // namespace

const char* to_string(ChurnEventKind kind) {
  switch (kind) {
    case ChurnEventKind::Join: return "join";
    case ChurnEventKind::Leave: return "leave";
    case ChurnEventKind::BudgetGrow: return "budget_grow";
    case ChurnEventKind::BudgetShrink: return "budget_shrink";
    case ChurnEventKind::Perturb: return "perturb";
  }
  return "?";
}

const char* to_string(ChurnMode mode) {
  return mode == ChurnMode::Track ? "track" : "respond";
}

ChurnEngine::ChurnEngine(Digraph initial, std::vector<std::uint32_t> budgets, ChurnConfig config,
                         ThreadPool* pool)
    : graph_(std::move(initial)),
      caps_(std::move(budgets)),
      config_(std::move(config)),
      pool_(pool),
      backend_(&find_solver(config_.solver)) {
  const std::uint32_t n = graph_.num_vertices();
  BBNG_REQUIRE(caps_.size() == n);
  // budget_cap is overwritten per query with the player's live cap; a
  // pre-set value would silently be ignored, so reject it.
  BBNG_REQUIRE(config_.budget.budget_cap == 0);
  for (Vertex u = 0; u < n; ++u) {
    BBNG_REQUIRE(caps_[u] < n);
    if (caps_[u] == 0) BBNG_REQUIRE(graph_.out_degree(u) == 0);
  }
  regret_.assign(n, 0);
  certified_.assign(n, 0);
  stamp_.assign(n, 0);
  dirty_.assign(n, 0);
  responded_.assign(n, 0);

  // Initial certificate: one full refresh. Counted into the same stats as
  // later work — consumers comparing against per-event re-auditing snapshot
  // stats() after construction (both sides pay this audit once).
  StateTable state(graph_);
  current_costs_ = state_current_costs(state, config_.version, config_.budget.core, pool_);
  const std::uint64_t bound = trivial_cost_lower_bound(n, config_.version);
  for (Vertex u = 0; u < n; ++u) {
    if (caps_[u] == 0) {
      set_regret(u, 0, true);
    } else if (current_costs_[u] == bound) {
      set_regret(u, 0, true);
      ++stats_.skips_trivial;
    } else {
      refresh_player(u, state);
    }
  }
  churn_counters().publish(stats_, flushed_);
  flushed_ = stats_;
}

std::uint32_t ChurnEngine::active_players() const {
  std::uint32_t active = 0;
  for (const std::uint32_t cap : caps_) active += cap > 0 ? 1 : 0;
  return active;
}

std::uint64_t ChurnEngine::regret(Vertex u) const {
  BBNG_REQUIRE(u < regret_.size());
  return regret_[u];
}

bool ChurnEngine::player_certified(Vertex u) const {
  BBNG_REQUIRE(u < certified_.size());
  return certified_[u] != 0;
}

std::uint64_t ChurnEngine::epsilon() {
  while (!heap_.empty()) {
    const auto& [regret, u, stamp] = heap_.top();
    if (stamp == stamp_[u]) return regret;  // valid ⇒ the max standing regret
    heap_.pop();                            // superseded by a later set_regret
  }
  return 0;
}

Vertex ChurnEngine::deviator() const {
  for (Vertex u = 0; u < graph_.num_vertices(); ++u) {
    if (regret_[u] > 0) return u;
  }
  return graph_.num_vertices();
}

bool ChurnEngine::certified() const {
  for (Vertex u = 0; u < graph_.num_vertices(); ++u) {
    if (caps_[u] > 0 && certified_[u] == 0) return false;
  }
  return true;
}

NashReport ChurnEngine::audit() const {
  return verify_nash_equilibrium(graph_, config_.version, config_.budget, config_.solver, pool_,
                                 &caps_);
}

SolverResult ChurnEngine::solve_player(Vertex u, StateTable* state) {
  SolverBudget budget = config_.budget;
  budget.budget_cap = caps_[u];
  const std::uint64_t hits_before = cache_.stats().hits;
  SolverResult result =
      backend_->solve(graph_, u, config_.version, budget, pool_, &cache_, state);
  ++stats_.solver_queries;
  if (cache_.stats().hits > hits_before) {
    ++stats_.cache_hits;
  } else {
    ++stats_.solver_searches;
  }
  return result;
}

void ChurnEngine::refresh_player(Vertex u, StateTable& state) {
  const SolverResult result = solve_player(u, &state);
  // The maintained cost vector and the backend see the same exact distances.
  BBNG_ASSERT(result.current_cost == current_costs_[u]);
  set_regret(u, result.improves() ? result.current_cost - result.cost : 0, result.optimal);
}

void ChurnEngine::set_regret(Vertex u, std::uint64_t regret, bool certified) {
  const std::uint8_t cert = certified ? 1 : 0;
  if (regret_[u] == regret && certified_[u] == cert) return;  // heap entry stays valid
  regret_[u] = regret;
  certified_[u] = cert;
  ++stamp_[u];
  if (regret > 0) heap_.emplace(regret, u, stamp_[u]);
}

void ChurnEngine::mark_dirty(Vertex u) {
  if (dirty_[u]) return;
  dirty_[u] = 1;
  dirty_queue_.push_back(u);
}

void ChurnEngine::apply_strategy(Vertex u, std::vector<Vertex> heads, DeltaKind& delta) {
  std::sort(heads.begin(), heads.end());
  const std::span<const Vertex> old_span = graph_.out_neighbors(u);
  const std::vector<Vertex> old_heads(old_span.begin(), old_span.end());
  if (heads == old_heads) return;
  bool any_insert = false;
  for (const Vertex h : heads) {
    if (!std::binary_search(old_heads.begin(), old_heads.end(), h)) {
      any_insert = true;
      break;
    }
  }
  graph_.set_strategy(u, heads);
  ++stats_.moves;
  mark_dirty(u);
  if (any_insert) {
    delta = DeltaKind::kMixed;
  } else if (delta == DeltaKind::kNone) {
    delta = DeltaKind::kDeletionOnly;  // deletions merge with deletions only
  }
}

std::vector<Vertex> ChurnEngine::trimmed_strategy(Vertex u, std::uint32_t cap) const {
  return with_move_evaluator(graph_, u, config_.version, config_.budget.incremental,
                             config_.budget.core,
                             [cap](auto& eval) { return greedy_trim(eval, cap); });
}

void ChurnEngine::respond(Vertex p, DeltaKind& delta) {
  const SolverResult result = solve_player(p, nullptr);  // the graph moves next
  if (result.improves() || graph_.out_degree(p) != caps_[p]) {
    apply_strategy(p, result.strategy, delta);
  }
  // A player that just played a CERTIFIED best response has regret 0 on the
  // post-move state: its own arcs are not part of its base graph, so its
  // optimum is untouched by its own move and equals its new current cost.
  // A heuristic answer does not certify that fix-point (a fresh descent
  // from the new strategy may find more), so only certified responders skip
  // the refresh re-solve.
  responded_[p] = result.optimal ? 1 : 0;
}

void ChurnEngine::settle(DeltaKind delta) {
  if (delta == DeltaKind::kNone) {
    // Nothing moved in the graph: every non-dirty player's query — base
    // graph, in-neighbour set, budget cap — is bit-identical to the one its
    // standing certificate answers, so only the dirty players re-solve.
    const std::uint64_t bound =
        trivial_cost_lower_bound(graph_.num_vertices(), config_.version);
    std::uint64_t dirty_active = 0;
    StateTable state(graph_);
    for (const Vertex u : dirty_queue_) {
      if (caps_[u] == 0) {
        set_regret(u, 0, true);  // retired: the empty strategy is its space
        continue;
      }
      ++dirty_active;
      if (current_costs_[u] == bound) {
        set_regret(u, 0, true);
        ++stats_.skips_trivial;
      } else {
        refresh_player(u, state);
      }
    }
    stats_.skips_clean += active_players() - dirty_active;
  } else {
    refresh_all(delta);
  }
  for (const Vertex u : dirty_queue_) {
    dirty_[u] = 0;
    responded_[u] = 0;
  }
  dirty_queue_.clear();
}

void ChurnEngine::refresh_all(DeltaKind delta) {
  ++stats_.refreshes;
  const std::vector<std::uint64_t> previous = std::move(current_costs_);
  StateTable state(graph_);
  current_costs_ = state_current_costs(state, config_.version, config_.budget.core, pool_);
  const std::uint64_t bound = trivial_cost_lower_bound(graph_.num_vertices(), config_.version);
  for (Vertex u = 0; u < graph_.num_vertices(); ++u) {
    if (caps_[u] == 0) {
      set_regret(u, 0, true);
      continue;
    }
    if (current_costs_[u] == bound) {
      // At the admissible floor no strategy of any size improves — the same
      // certificate the audit's prepass hands out.
      set_regret(u, 0, true);
      ++stats_.skips_trivial;
      continue;
    }
    if (responded_[u] != 0) {
      set_regret(u, 0, true);
      continue;
    }
    if (delta == DeltaKind::kDeletionOnly && dirty_[u] == 0 && certified_[u] != 0 &&
        regret_[u] == 0 && current_costs_[u] == previous[u]) {
      // Deletion-locality lemma: deleting edges weakly increases every
      // strategy's cost for every player, so with the current cost measured
      // unchanged, best_new ≥ best_old = current_old = current_new ≥
      // best_new — the regret-0 certificate survives exactly.
      ++stats_.skips_locality;
      continue;
    }
    refresh_player(u, state);
  }
}

void ChurnEngine::accumulate_baseline() {
  const std::uint64_t bound = trivial_cost_lower_bound(graph_.num_vertices(), config_.version);
  for (Vertex u = 0; u < graph_.num_vertices(); ++u) {
    if (caps_[u] > 0 && current_costs_[u] != bound) ++stats_.baseline_solves;
  }
}

void ChurnEngine::apply(const ChurnEvent& event) {
  const Vertex p = event.player;
  const std::uint32_t n = graph_.num_vertices();
  BBNG_REQUIRE(p < n);
  static const obs::HistogramId kEventHist = obs::register_histogram("churn.event");
  obs::ScopedTimer span(kEventHist, "churn.apply");
  span.arg("kind", to_string(event.kind));
  span.arg("player", std::uint64_t{p});
  DeltaKind delta = DeltaKind::kNone;
  bool respond_p = false;
  switch (event.kind) {
    case ChurnEventKind::Join:
      BBNG_REQUIRE(caps_[p] == 0 && graph_.out_degree(p) == 0);
      BBNG_REQUIRE(event.budget >= 1 && event.budget < n);
      caps_[p] = event.budget;
      mark_dirty(p);
      respond_p = true;
      ++stats_.joins;
      break;
    case ChurnEventKind::Leave:
      BBNG_REQUIRE(caps_[p] > 0);
      // The PLAYER retires, not the vertex: its out-arcs drop, but arcs other
      // players own into it — and its seat in their cost sums — remain.
      if (graph_.out_degree(p) > 0) apply_strategy(p, {}, delta);
      caps_[p] = 0;
      mark_dirty(p);
      ++stats_.leaves;
      break;
    case ChurnEventKind::BudgetGrow:
      BBNG_REQUIRE(caps_[p] > 0 && event.budget > caps_[p] && event.budget < n);
      caps_[p] = event.budget;
      mark_dirty(p);
      respond_p = true;
      ++stats_.grows;
      break;
    case ChurnEventKind::BudgetShrink:
      BBNG_REQUIRE(caps_[p] > 0 && event.budget >= 1 && event.budget < caps_[p]);
      caps_[p] = event.budget;
      mark_dirty(p);
      ++stats_.shrinks;
      if (config_.mode == ChurnMode::Respond) {
        // The responder re-solves under the new cap from the untrimmed
        // state — a full rewire is allowed, not just dropping arcs.
        respond_p = true;
      } else if (graph_.out_degree(p) > caps_[p]) {
        // Track mode: the budget constraint is physical — excess arcs are
        // trimmed greedily (a deletion-only delta, so the locality lemma
        // carries most certificates across).
        apply_strategy(p, trimmed_strategy(p, caps_[p]), delta);
      }
      break;
    case ChurnEventKind::Perturb:
      BBNG_REQUIRE(caps_[p] > 0 && graph_.has_arc(p, event.old_head));
      BBNG_REQUIRE(event.new_head != p && event.new_head != event.old_head);
      BBNG_REQUIRE(!graph_.has_arc(p, event.new_head));
      graph_.remove_arc(p, event.old_head);
      graph_.add_arc(p, event.new_head);
      delta = DeltaKind::kMixed;
      mark_dirty(p);
      if (config_.mode == ChurnMode::Respond) respond_p = true;
      ++stats_.perturbs;
      break;
  }
  if (config_.mode == ChurnMode::Respond && respond_p && caps_[p] > 0) respond(p, delta);
  settle(delta);
  accumulate_baseline();
  ++stats_.events;
  churn_counters().publish(stats_, flushed_);
  flushed_ = stats_;
}

std::optional<ChurnEvent> ChurnTraceSampler::next(const Digraph& g,
                                                  const std::vector<std::uint32_t>& budgets) {
  const std::uint32_t n = g.num_vertices();
  BBNG_REQUIRE(budgets.size() == n);
  const std::uint32_t cap_limit = std::min(max_budget_, n > 0 ? n - 1 : 0);
  std::vector<Vertex> inactive, active, growable, shrinkable, perturbable;
  for (Vertex u = 0; u < n; ++u) {
    if (budgets[u] == 0) {
      inactive.push_back(u);
      continue;
    }
    active.push_back(u);
    if (budgets[u] < cap_limit) growable.push_back(u);
    if (budgets[u] >= 2) shrinkable.push_back(u);
    if (g.out_degree(u) >= 1 && g.out_degree(u) < n - 1) perturbable.push_back(u);
  }

  struct Option {
    ChurnEventKind kind;
    std::uint32_t weight;
    const std::vector<Vertex>* pool;
  };
  std::vector<Option> options;
  if (weights_.join > 0 && !inactive.empty() && cap_limit >= 1) {
    options.push_back({ChurnEventKind::Join, weights_.join, &inactive});
  }
  if (weights_.leave > 0 && active.size() >= 3) {  // keep ≥ 2 active players
    options.push_back({ChurnEventKind::Leave, weights_.leave, &active});
  }
  if (weights_.grow > 0 && !growable.empty()) {
    options.push_back({ChurnEventKind::BudgetGrow, weights_.grow, &growable});
  }
  if (weights_.shrink > 0 && !shrinkable.empty()) {
    options.push_back({ChurnEventKind::BudgetShrink, weights_.shrink, &shrinkable});
  }
  if (weights_.perturb > 0 && !perturbable.empty()) {
    options.push_back({ChurnEventKind::Perturb, weights_.perturb, &perturbable});
  }
  if (options.empty()) return std::nullopt;

  std::uint64_t total = 0;
  for (const Option& option : options) total += option.weight;
  std::uint64_t pick = rng_.next_below(total);
  std::size_t chosen = 0;
  while (pick >= options[chosen].weight) {
    pick -= options[chosen].weight;
    ++chosen;
  }
  const Option& option = options[chosen];

  ChurnEvent event;
  event.kind = option.kind;
  event.player = (*option.pool)[rng_.next_below(option.pool->size())];
  const Vertex p = event.player;
  switch (event.kind) {
    case ChurnEventKind::Join:
      event.budget = 1 + static_cast<std::uint32_t>(rng_.next_below(cap_limit));
      break;
    case ChurnEventKind::Leave:
      break;
    case ChurnEventKind::BudgetGrow:
      event.budget =
          budgets[p] + 1 + static_cast<std::uint32_t>(rng_.next_below(cap_limit - budgets[p]));
      break;
    case ChurnEventKind::BudgetShrink:
      event.budget = 1 + static_cast<std::uint32_t>(rng_.next_below(budgets[p] - 1));
      break;
    case ChurnEventKind::Perturb: {
      const std::span<const Vertex> heads = g.out_neighbors(p);
      event.old_head = heads[rng_.next_below(heads.size())];
      std::vector<Vertex> targets;
      targets.reserve(n - 1 - heads.size());
      for (Vertex t = 0; t < n; ++t) {
        if (t != p && !g.has_arc(p, t)) targets.push_back(t);
      }
      event.new_head = targets[rng_.next_below(targets.size())];
      break;
    }
  }
  return event;
}

}  // namespace bbng
