// Equilibrium tracking under churn — the "millions of users" workload.
//
// Production networks are not static: players join and leave, budgets grow
// and shrink, and edges get perturbed from outside the game. ChurnEngine
// applies such a deterministic event stream to a live realization while
// maintaining a continuously-valid ε-Nash certificate: every active player's
// standing regret (current cost minus its best-response cost under its
// budget cap), the maximum of which — the ε of the ε-Nash verdict — is kept
// in a lazy max-regret heap.
//
// The certificate is maintained INCREMENTALLY. A player's best response
// depends only on its base graph (the arcs it does not own), its in-
// neighbour set, and its budget cap — the same locality the transposition
// cache key (solver/solver.hpp) and the profile-space improvement graph
// (game/improvement_graph.hpp) encode. The engine exploits it three ways:
//
//  1. Events that move no edges (a join, a budget change) leave every OTHER
//     player's query bit-identical, so only the event's player enters the
//     dirty queue and is re-solved — n−1 solves saved exactly.
//  2. Events that only DELETE edges (a leave, a budget-shrink trim) weakly
//     increase every strategy's cost for every player, so a player whose
//     regret was certified 0 and whose current cost is unchanged keeps
//     regret 0 exactly: best_new ≥ best_old = current_old = current_new ≥
//     best_new. tests/test_churn.cpp re-solves every active player after
//     every event and checks each standing certificate, skipped ones
//     included.
//  3. All remaining players are refreshed through one batched MultiBfs
//     current-cost prepass (game/equilibrium.hpp: batched_current_costs —
//     ⌈n/64⌉ packed sweeps instead of n BFS runs), the trivial-lower-bound
//     skip, and the budget-cap-aware transposition cache.
//
// At any point the certificate must be bit-identical to a from-scratch
// verify_nash_equilibrium of the live state under the live budget caps —
// audit() runs exactly that comparator, and the differential churn suite
// pins stable/epsilon/deviator/certified after every event.
//
// This is also the empirical instrument for the paper's open Section 8
// question (does best-response dynamics converge in the bounded-budget
// game?): ChurnMode::Respond lets the event's player answer with its best
// response, interleaving dynamics with churn at scales the authors could
// not touch.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "game/equilibrium.hpp"
#include "game/game.hpp"
#include "graph/digraph.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace bbng {

enum class ChurnEventKind {
  Join,         ///< an inactive slot becomes a player with a fresh budget
  Leave,        ///< a player retires: its out-arcs drop, its budget goes to 0
  BudgetGrow,   ///< a player's budget cap rises (no immediate edge change)
  BudgetShrink, ///< a player's budget cap falls; excess arcs are trimmed
  Perturb,      ///< one owned arc is exogenously rewired to a new head
};

[[nodiscard]] const char* to_string(ChurnEventKind kind);

/// One concrete event. Which fields matter depends on `kind`:
/// Join — player (an inactive slot) and budget (its fresh cap ≥ 1);
/// Leave — player; BudgetGrow/BudgetShrink — player and budget (the NEW
/// cap); Perturb — player plus the rewired arc (old_head → new_head).
struct ChurnEvent {
  ChurnEventKind kind = ChurnEventKind::Join;
  Vertex player = 0;
  std::uint32_t budget = 0;
  Vertex old_head = 0;
  Vertex new_head = 0;
};

enum class ChurnMode {
  /// Events apply but players never move voluntarily; the engine tracks how
  /// far from equilibrium the stream drags the state (regrets accumulate).
  Track,
  /// The event's player immediately answers with its best response under
  /// its (new) cap — churn interleaved with best-response dynamics.
  Respond,
};

[[nodiscard]] const char* to_string(ChurnMode mode);

struct ChurnConfig {
  CostVersion version = CostVersion::Sum;
  ChurnMode mode = ChurnMode::Track;
  /// Registry backend answering every regret query ("exact_bb" keeps the
  /// whole certificate exact; heuristics track the same ε the from-scratch
  /// audit with that backend would report).
  std::string solver = "exact_bb";
  /// Per-solve budget. budget_cap is overwritten per query with the
  /// player's live cap; the other knobs pass through.
  SolverBudget budget;
};

/// Work counters. The baseline_solves counter accumulates, per applied
/// event, the searches a from-scratch verify_nash_equilibrium of the
/// post-event state would have spent (active players not certified by the
/// trivial-bound prepass) — the denominator-free way to compare the
/// incremental engine against per-event re-auditing without running it.
struct ChurnStats {
  std::uint64_t events = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t grows = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t perturbs = 0;
  std::uint64_t moves = 0;            ///< strategies applied (responses + trims)
  std::uint64_t solver_queries = 0;   ///< backend solves asked for
  std::uint64_t solver_searches = 0;  ///< of those, real searches (cache misses)
  std::uint64_t cache_hits = 0;       ///< of those, free transposition hits
  std::uint64_t skips_trivial = 0;    ///< regret-0 certificates off the cost floor
  std::uint64_t skips_locality = 0;   ///< certificates kept by the deletion lemma
  std::uint64_t skips_clean = 0;      ///< players untouched by a no-delta event
  std::uint64_t refreshes = 0;        ///< bulk refreshes (edge-delta events)
  std::uint64_t baseline_solves = 0;  ///< per-event re-audit search count (see above)
};

/// Registry mirror of ChurnStats (`churn.*`), published at every event
/// boundary.
inline const obs::CounterTable<ChurnStats>& churn_counters() {
  static const obs::CounterTable<ChurnStats> table{
      {"churn.events", &ChurnStats::events},
      {"churn.joins", &ChurnStats::joins},
      {"churn.leaves", &ChurnStats::leaves},
      {"churn.grows", &ChurnStats::grows},
      {"churn.shrinks", &ChurnStats::shrinks},
      {"churn.perturbs", &ChurnStats::perturbs},
      {"churn.moves", &ChurnStats::moves},
      {"churn.solver_queries", &ChurnStats::solver_queries},
      {"churn.solver_searches", &ChurnStats::solver_searches},
      {"churn.cache_hits", &ChurnStats::cache_hits},
      {"churn.skips_trivial", &ChurnStats::skips_trivial},
      {"churn.skips_locality", &ChurnStats::skips_locality},
      {"churn.skips_clean", &ChurnStats::skips_clean},
      {"churn.refreshes", &ChurnStats::refreshes},
      {"churn.baseline_solves", &ChurnStats::baseline_solves},
      // The headline saving: certificates kept without invoking the backend.
      {"churn.solves_skipped",
       [](const ChurnStats& s) { return s.skips_trivial + s.skips_locality + s.skips_clean; }},
  };
  return table;
}

/// The live engine. Construction certifies the initial state (one full
/// refresh); every apply() restores the invariant that regret(u) — and with
/// it epsilon()/stable()/deviator()/certified() — matches what a fresh
/// verify_nash_equilibrium(graph(), …, budgets()) of the live state reports.
class ChurnEngine {
 public:
  /// `budgets[u] == 0` marks an inactive slot and requires out_degree(u) == 0;
  /// active entries need not equal the out-degree (a joined player that has
  /// not bought yet). Budgets must stay < n (a strategy holds distinct
  /// non-self heads).
  ChurnEngine(Digraph initial, std::vector<std::uint32_t> budgets, ChurnConfig config = {},
              ThreadPool* pool = nullptr);

  void apply(const ChurnEvent& event);

  [[nodiscard]] const Digraph& graph() const noexcept { return graph_; }
  [[nodiscard]] const std::vector<std::uint32_t>& budgets() const noexcept { return caps_; }
  [[nodiscard]] const ChurnStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint32_t active_players() const;

  /// Standing regret of player u (0 for retired slots).
  [[nodiscard]] std::uint64_t regret(Vertex u) const;
  /// Whether u's regret carries an optimality certificate.
  [[nodiscard]] bool player_certified(Vertex u) const;

  /// Max standing regret — the ε of the ε-Nash certificate (lazy heap pop).
  [[nodiscard]] std::uint64_t epsilon();
  [[nodiscard]] bool stable() { return epsilon() == 0; }
  /// Smallest player with positive regret; num_vertices() when stable.
  [[nodiscard]] Vertex deviator() const;
  /// True iff every active player's regret is certified exact.
  [[nodiscard]] bool certified() const;

  /// The from-scratch comparator: verify_nash_equilibrium of the live state
  /// under the live budget caps, with this engine's solver and budget. The
  /// incremental certificate must agree with it bit-for-bit — the
  /// differential suite and every bench checkpoint enforce that.
  [[nodiscard]] NashReport audit() const;

 private:
  enum class DeltaKind { kNone, kDeletionOnly, kMixed };

  /// Solve u under its live cap through the cache, counted into
  /// queries/searches/hits. `state` is the StateTable of graph_ a loop over
  /// players owns (null outside such a loop).
  [[nodiscard]] SolverResult solve_player(Vertex u, StateTable* state);
  void refresh_player(Vertex u, StateTable& state);
  void set_regret(Vertex u, std::uint64_t regret, bool certified);
  void mark_dirty(Vertex u);
  /// Replace u's strategy, classifying the edge delta into `delta`.
  void apply_strategy(Vertex u, std::vector<Vertex> heads, DeltaKind& delta);
  /// Deterministic greedy trim of u's strategy down to `cap` heads (drop the
  /// head whose removal costs u least, ties to the smallest head).
  [[nodiscard]] std::vector<Vertex> trimmed_strategy(Vertex u, std::uint32_t cap) const;
  void respond(Vertex p, DeltaKind& delta);
  /// Restore the certificate after `delta`; `refresh_all` recomputes the
  /// current-cost vector and walks every player through the skip ladder.
  void settle(DeltaKind delta);
  void refresh_all(DeltaKind delta);
  void accumulate_baseline();

  Digraph graph_;
  std::vector<std::uint32_t> caps_;
  ChurnConfig config_;
  ThreadPool* pool_;
  const BestResponseBackend* backend_;
  TranspositionCache cache_;  ///< at its default bound of 4096 entries
  std::vector<std::uint64_t> current_costs_;  ///< exact, maintained per event
  std::vector<std::uint64_t> regret_;
  std::vector<std::uint8_t> certified_;
  std::vector<std::uint64_t> stamp_;          ///< invalidates stale heap entries
  std::vector<std::uint8_t> dirty_;
  std::vector<Vertex> dirty_queue_;
  std::vector<std::uint8_t> responded_;  ///< regret-0-certified by its own move
  /// Lazy max-regret heap: (regret, player, stamp); entries whose stamp no
  /// longer matches stamp_[player] are popped as stale.
  std::priority_queue<std::tuple<std::uint64_t, Vertex, std::uint64_t>> heap_;
  ChurnStats stats_;
  /// The prefix of stats_ already published through churn_counters().
  /// Construction and every apply() end by publishing the rest, so the
  /// struct and the registry agree bit for bit at every event boundary.
  ChurnStats flushed_;
};

/// Weighted sampler of feasible churn events against the engine's live
/// state. Infeasible kinds (no inactive slot to join, too few active
/// players to leave, no budget headroom to grow, …) drop out of the draw,
/// so every returned event is applicable; nullopt only when NO kind is
/// feasible. Deterministic: the same seed against the same state sequence
/// yields the same trace — engine artifacts and benches replay it exactly.
struct ChurnTraceWeights {
  std::uint32_t join = 4;
  std::uint32_t leave = 1;
  std::uint32_t grow = 4;
  std::uint32_t shrink = 1;
  std::uint32_t perturb = 1;
};

class ChurnTraceSampler {
 public:
  /// `max_budget` caps what joins/grows may reach (clamped to n − 1);
  /// leaves keep at least two active players.
  ChurnTraceSampler(ChurnTraceWeights weights, std::uint32_t max_budget, std::uint64_t seed)
      : weights_(weights), max_budget_(max_budget), rng_(seed) {}

  [[nodiscard]] std::optional<ChurnEvent> next(const Digraph& g,
                                               const std::vector<std::uint32_t>& budgets);

 private:
  ChurnTraceWeights weights_;
  std::uint32_t max_budget_;
  Rng rng_;
};

}  // namespace bbng
