// Best-response solver subsystem — the common anytime interface.
//
// Computing a best response is NP-hard (Theorem 2.1), so no single algorithm
// fits every instance. This subsystem gives every algorithm one shape: a
// *backend* takes a realization, a player, a cost version, and a SolverBudget
// (wall-clock deadline + node limit), and returns a SolverResult
// (game/best_response.hpp, the one result type of every best-response
// solver) carrying an incumbent strategy, an admissible lower bound on the
// true best-response cost, and an optimality certificate flag. Certified
// backends (exact branch-and-bound) set `optimal` only when the search
// closed; heuristic backends (portfolio, the greedy+swap ladder) leave it
// false unless the strategy space is degenerate. Backends are stateless and thread-safe —
// the scenario engine calls one shared instance from many jobs at once.
//
// Consumers select backends by registry name ("exact_bb", "portfolio",
// "swap"; see registry.hpp), which is how dynamics configs, equilibrium
// checks, and engine specs name their solver declaratively.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "game/best_response.hpp"
#include "game/game.hpp"
#include "graph/csr_graph.hpp"
#include "graph/digraph.hpp"
#include "obs/metrics.hpp"
#include "obs/timing.hpp"
#include "parallel/thread_pool.hpp"

namespace bbng {

/// Anytime execution budget. The node-limit unit — and the meaning of 0 —
/// is backend-specific: exact_bb counts search-tree nodes (0 = unlimited);
/// the swap ladder takes it verbatim as the legacy exact-enumeration
/// candidate cap (0 DISABLES the exact path, exactly as exact_limit = 0
/// always has); the portfolio's racers are polynomial and ignore it. The
/// deadline is honoured where a preemption point exists: per search node in
/// exact_bb, between racers in the portfolio; the swap ladder has none and
/// ignores it (spec validation rejects a deadline aimed at it).
/// The heuristic move sets (greedy, swap descent, churn's trim) score on
/// TableEvaluator for n ≤ kTableEvaluatorLimit. Above it `incremental` and
/// `core` pick their evaluator through with_move_evaluator
/// (game/strategy_eval.hpp): the delta oracle on the CSR or vector core, or
/// the naive full-BFS evaluator when !incremental. Every choice scores
/// bit-identically, so both are performance knobs; only the bfs_avoided work
/// stat differs. exact_bb picks its own scoring path by n and ignores them.
struct SolverBudget {
  double deadline_seconds = 0;   ///< wall-clock cap; 0 = none
  std::uint64_t node_limit = 0;  ///< backend-specific work cap (see above)
  bool incremental = true;       ///< delta-oracle scoring (naive when false)
  GraphCore core = GraphCore::kCsr;  ///< delta-oracle graph core
  /// Game budget cap b_i the backend must solve under. 0 (the default) keeps
  /// the classic implicit reading — the player's current out-degree — which
  /// is safe as a sentinel because a genuinely budget-0 player has an empty
  /// strategy space and its callers (dynamics, audits, churn) never solve it.
  /// Churn sets this when budget and degree diverge (a joined player before
  /// its first purchase, a budget grown/shrunk at a fixed neighbourhood);
  /// with cap < out-degree `cost` may legitimately exceed `current_cost`
  /// (staying put is no longer a feasible strategy).
  std::uint32_t budget_cap = 0;
};

/// The budget cap a query is solved under: `budget.budget_cap` when set,
/// else the player's current out-degree (the classic implicit-budget
/// reading).
[[nodiscard]] std::uint32_t effective_budget_cap(const Digraph& g, Vertex player,
                                                 const SolverBudget& budget);

/// Memo of certified solves keyed by the *canonical relevant state* of a
/// query: the player's base graph (underlying(G) minus the player's edges —
/// the player's own out-arcs never affect its best response), its
/// in-neighbour set, its budget, and the cost version. Keys are compared by
/// full encoded bytes (a 64-bit hash only buckets them), so a hit is exact,
/// never probabilistic — a requirement for certified results. Only optimal
/// results are stored, and the memo is bounded: at `max_entries` it flushes
/// wholesale and refills, so long dynamics runs keep their *recent* (hot)
/// states cached instead of growing O(moves · m) bytes of stale entries.
/// Not thread-safe; callers own one per thread.
class TranspositionCache {
 public:
  /// Work counters, mirrored in the registry by counters().
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t flushes = 0;  ///< times the memo hit its bound and flushed
  };
  /// Registry mirror of Stats (`cache.transposition.*`), published per event.
  [[nodiscard]] static const obs::CounterTable<Stats>& counters();

  explicit TranspositionCache(std::size_t max_entries = 4096)
      : max_entries_(max_entries) {}
  /// Canonical key bytes for a (g, player, version, budget-cap) query,
  /// written in one pass over the out-lists as 32-bit words: the version, n,
  /// the player and the cap, then per vertex u ≠ player a header word
  /// 2·|heads other than the player| + [u → player] and those heads. Two
  /// keys are equal iff the queries agree on all four header values, the
  /// player's in-neighbour set and every arc not incident to the player.
  /// find/store bucket keys by a word-wise hash and compare them in full.
  /// `budget_cap` is the EFFECTIVE cap the solve runs under (see
  /// effective_budget_cap) and is part of the key: the same neighbourhood
  /// solved under two caps has two different certified optima, so a churn
  /// budget change at a fixed neighbourhood must never hit the entry
  /// certified under the old cap.
  [[nodiscard]] static std::string make_key(const Digraph& g, Vertex player,
                                            CostVersion version, std::uint32_t budget_cap);

  /// One find(): the cached certified result, or nullptr, and the key's
  /// bucket hash, which a store() of the same key takes back so a missed
  /// key is hashed once. `current_cost` in a hit is stale (it depends on the
  /// player's current strategy, which is not part of the key) — callers must
  /// refresh it.
  struct Lookup {
    const SolverResult* hit = nullptr;
    std::uint64_t hash = 0;
  };
  [[nodiscard]] Lookup find(const std::string& key) const;

  /// Store a certified result (ignored unless result.optimal) under `key`,
  /// whose bucket hash find(key) returned.
  void store(const std::string& key, std::uint64_t hash, const SolverResult& result);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_; }
  [[nodiscard]] std::size_t max_entries() const noexcept { return max_entries_; }

 private:
  std::size_t max_entries_;
  mutable Stats stats_;
  std::size_t entries_ = 0;
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::string, SolverResult>>> map_;
};

/// A best-response algorithm behind the common anytime interface. Stateless;
/// `solve` may be called concurrently.
///
/// solve() is the one entry of every backend. Around the backend's own
/// search() it records the `solver.solve.<name>` histogram sample and the
/// `solve:<name>` span, resolves the budget cap, runs a capped query on a
/// degree-normalised copy for the backends whose move set needs it, serves
/// and stores certified results through `cache` for the backends that
/// memoise, and publishes the solve to `solver.<name>.*`: `solves` (or
/// `cache_served` for a cache hit), `evaluated`, `nodes`, `pruned` and
/// `bfs_avoided`. `pool` parallelises inside a single search where the
/// backend supports it (the swap ladder's exact enumeration). `state`, a
/// StateTable of g's state owned by a loop over its players, is handed to
/// the search (exact_bb derives its table from it and reads a cap-0 cost off
/// it) and answers a cache hit's current cost; null rebuilds both per solve.
/// Results are bit-identical either way.
class BestResponseBackend {
 public:
  virtual ~BestResponseBackend() = default;
  BestResponseBackend(const BestResponseBackend&) = delete;
  BestResponseBackend& operator=(const BestResponseBackend&) = delete;

  [[nodiscard]] std::string_view name() const noexcept { return name_; }
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  /// Whether SolverBudget::deadline_seconds is honoured (the backend has a
  /// preemption point). Validation layers use this to reject deadlines that
  /// would be silent no-ops, so it must stay truthful per backend.
  [[nodiscard]] virtual bool supports_deadline() const noexcept { return true; }

  [[nodiscard]] SolverResult solve(const Digraph& g, Vertex player, CostVersion version,
                                   const SolverBudget& budget = {}, ThreadPool* pool = nullptr,
                                   TranspositionCache* cache = nullptr,
                                   StateTable* state = nullptr) const;

  /// This backend's searched solves so far (`solver.<name>.solves`),
  /// merged across threads.
  [[nodiscard]] std::uint64_t solves_so_far() const;

 protected:
  /// What solve() does around search() for this backend.
  struct Traits {
    /// The move set assumes budget == out-degree, so a query whose cap
    /// differs is searched on normalize_player_degree's copy and only
    /// current_cost is re-anchored to the real strategy (a forced shrink
    /// may then cost more than staying put).
    bool normalizes_degree = false;
    /// Certified results are served from and stored in the caller's cache.
    bool memoizes = false;
  };
  BestResponseBackend(std::string name, Traits traits);

 private:
  /// The backend's own search for one query under budget cap `cap` (the
  /// out-degree of `g`'s player when the backend normalizes_degree). Fills
  /// every SolverResult field but `solver`. `state` is solve()'s, possibly
  /// null; it serves g, a normalised copy included.
  [[nodiscard]] virtual SolverResult search(const Digraph& g, Vertex player,
                                            CostVersion version, const SolverBudget& budget,
                                            std::uint32_t cap, ThreadPool* pool,
                                            StateTable* state) const = 0;

  std::string name_;
  std::string span_name_;
  Traits traits_;
  obs::HistogramId solve_hist_;
  obs::CounterId solves_;
  obs::CounterId cache_served_;
  obs::CounterTable<SolverResult> work_;
};

/// The weakest bound every backend may fall back on: with n ≥ 2 every other
/// vertex sits at distance ≥ 1, so SUM ≥ n−1 and MAX ≥ 1. Shared so the
/// heuristic backends can never drift apart on the same query.
[[nodiscard]] std::uint64_t trivial_cost_lower_bound(std::uint32_t n, CostVersion version);

/// One greedy construction refined by one swap descent — the incumbent
/// recipe shared by the swap ladder's heuristic rung and the portfolio's
/// racer 2, kept in one place so their counters and incumbents stay
/// comparable.
struct GreedySwapDescent {
  SolverResult coarse;   ///< greedy construction from scratch
  SolverResult refined;  ///< swap descent started from `coarse`
};
[[nodiscard]] GreedySwapDescent greedy_swap_descent(const Digraph& g, Vertex player,
                                                    CostVersion version, bool incremental,
                                                    GraphCore core = GraphCore::kCsr);

}  // namespace bbng
